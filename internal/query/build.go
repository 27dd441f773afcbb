package query

import (
	"fmt"
	"strings"

	"repro/internal/store"
)

// Build derives the zone map and secondary index for one segment
// snapshot in a single pass over its frames. The sidecars inherit the
// snapshot's content fingerprint, so a sidecar that does not describe
// these exact bytes (copied from another segment, or left behind by a
// store rebuilt under the same ids) is detected as stale.
func Build(r *store.SegmentReader) (*ZoneMap, *Index, error) {
	info := r.Info()
	fp, err := r.Fingerprint()
	if err != nil {
		return nil, nil, err
	}
	z := &ZoneMap{SegID: info.ID, Fingerprint: fp, Records: info.Records}
	x := &Index{
		SegID:       info.ID,
		Fingerprint: fp,
		Records:     info.Records,
		Registrar:   make(map[string][]Posting),
		Country:     make(map[string][]Posting),
		Year:        make(map[int][]Posting),
	}
	regs := make(map[string]bool)
	countries := make(map[string]bool)

	var n uint64
	err = r.Frames(func(off int64, payload []byte) error {
		rec, err := store.DecodeRecord(payload)
		if err != nil {
			return err
		}
		n++
		f := &rec.Facts
		pt := Posting(off)

		if !z.RegOverflow {
			if !regs[f.Registrar] && len(regs) >= maxZoneKeys {
				z.RegOverflow = true
			} else {
				regs[f.Registrar] = true
			}
		}
		if !z.CountryOverflow {
			if !countries[f.Country] && len(countries) >= maxZoneKeys {
				z.CountryOverflow = true
			} else {
				countries[f.Country] = true
			}
		}
		if f.CreatedYear > 0 {
			if z.MaxYear == 0 || f.CreatedYear < z.MinYear {
				z.MinYear = f.CreatedYear
			}
			if f.CreatedYear > z.MaxYear {
				z.MaxYear = f.CreatedYear
			}
		} else {
			z.YearZero = true
		}

		x.Registrar = addPosting(x.Registrar, f.Registrar, pt)
		x.Country = addPosting(x.Country, f.Country, pt)
		if x.Year != nil {
			if _, ok := x.Year[f.CreatedYear]; !ok && len(x.Year) >= maxIndexKeys {
				x.Year = nil
			} else {
				x.Year[f.CreatedYear] = append(x.Year[f.CreatedYear], pt)
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if n != info.Records {
		return nil, nil, fmt.Errorf("query: build %s: saw %d of %d records", info.Path, n, info.Records)
	}
	// A decoded string is a slice of its whole record payload: keep
	// none of them in sidecars the engine caches for its lifetime.
	for r := range regs {
		z.Registrars = append(z.Registrars, strings.Clone(r))
	}
	for c := range countries {
		z.Countries = append(z.Countries, strings.Clone(c))
	}
	x.Registrar = cloneKeys(x.Registrar)
	x.Country = cloneKeys(x.Country)
	return z, x, nil
}

// cloneKeys re-keys m with copies of its keys. Cloning on first insert
// would not do: assigning to an existing string key stores the new key.
func cloneKeys(m map[string][]Posting) map[string][]Posting {
	if m == nil {
		return nil
	}
	out := make(map[string][]Posting, len(m))
	for k, v := range m {
		out[strings.Clone(k)] = v
	}
	return out
}

// addPosting appends pt under key, dropping the whole section once its
// key count crosses maxIndexKeys — an overflowed dimension falls back to
// scanning, it never seeks from a truncated list.
func addPosting(m map[string][]Posting, key string, pt Posting) map[string][]Posting {
	if m == nil {
		return nil
	}
	if _, ok := m[key]; !ok && len(m) >= maxIndexKeys {
		return nil
	}
	m[key] = append(m[key], pt)
	return m
}

// WriteSidecars persists the pair atomically (each file individually;
// the fingerprint ties them to the segment, not to each other).
func WriteSidecars(dir string, z *ZoneMap, x *Index) error {
	if err := writeFileAtomic(ZonePath(dir, z.SegID), encodeZoneMap(z)); err != nil {
		return err
	}
	return writeFileAtomic(IndexPath(dir, x.SegID), encodeIndex(x))
}
