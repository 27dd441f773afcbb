package crf

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/mathx"
)

// Differential tests for the pooled/memoized inference engine: the naive
// implementations below are the pre-engine code (fresh [][]float64 tables,
// no memoization, no pooling) kept verbatim as the reference. Every fast
// path must reproduce them bit-identically — cached score rows are copies
// of the direct computation, and the recursions perform the same floating-
// point operations in the same order.

type naiveLattice struct {
	n     int
	T     int
	state [][]float64
	trans [][]float64
}

func (m *Model) naiveBuildLattice(theta []float64, inst Instance) *naiveLattice {
	n := m.cfg.NumStates
	T := len(inst.Obs)
	lat := &naiveLattice{n: n, T: T}
	lat.state = make([][]float64, T)
	lat.trans = make([][]float64, T)
	for t := 0; t < T; t++ {
		lat.state[t] = make([]float64, n)
		m.stateScores(theta, inst.Obs[t], lat.state[t])
		if t >= 1 {
			lat.trans[t] = make([]float64, n*n)
			m.transScores(theta, inst.Obs[t], lat.trans[t])
		}
	}
	return lat
}

func naiveForward(lat *naiveLattice) [][]float64 {
	n, T := lat.n, lat.T
	alpha := make([][]float64, T)
	buf := make([]float64, n)
	for t := 0; t < T; t++ {
		alpha[t] = make([]float64, n)
		if t == 0 {
			copy(alpha[0], lat.state[0])
			continue
		}
		tr := lat.trans[t]
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				buf[i] = alpha[t-1][i] + tr[i*n+j]
			}
			alpha[t][j] = mathx.LogSumExpSlice(buf) + lat.state[t][j]
		}
	}
	return alpha
}

func naiveBackward(lat *naiveLattice) [][]float64 {
	n, T := lat.n, lat.T
	beta := make([][]float64, T)
	buf := make([]float64, n)
	for t := T - 1; t >= 0; t-- {
		beta[t] = make([]float64, n)
		if t == T-1 {
			continue
		}
		tr := lat.trans[t+1]
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				buf[j] = tr[i*n+j] + lat.state[t+1][j] + beta[t+1][j]
			}
			beta[t][i] = mathx.LogSumExpSlice(buf)
		}
	}
	return beta
}

func naiveSeqScore(lat *naiveLattice, y []int) float64 {
	var s float64
	for t := 0; t < lat.T; t++ {
		s += lat.state[t][y[t]]
		if t >= 1 {
			s += lat.trans[t][y[t-1]*lat.n+y[t]]
		}
	}
	return s
}

func (m *Model) naiveDecode(inst Instance) ([]int, float64) {
	n := m.cfg.NumStates
	T := len(inst.Obs)
	if T == 0 {
		return nil, 0
	}
	lat := m.naiveBuildLattice(m.theta, inst)
	v := make([]float64, n)
	vNext := make([]float64, n)
	back := make([][]int32, T)
	copy(v, lat.state[0])
	for t := 1; t < T; t++ {
		back[t] = make([]int32, n)
		tr := lat.trans[t]
		for j := 0; j < n; j++ {
			best := mathx.NegInf
			bestI := 0
			for i := 0; i < n; i++ {
				if s := v[i] + tr[i*n+j]; s > best {
					best, bestI = s, i
				}
			}
			vNext[j] = best + lat.state[t][j]
			back[t][j] = int32(bestI)
		}
		v, vNext = vNext, v
	}
	bestJ, bestScore := mathx.ArgMax(v)
	path := make([]int, T)
	path[T-1] = bestJ
	for t := T - 1; t >= 1; t-- {
		path[t-1] = int(back[t][path[t]])
	}
	return path, bestScore
}

func (m *Model) naiveLogZ(inst Instance) float64 {
	lat := m.naiveBuildLattice(m.theta, inst)
	if lat.T == 0 {
		return 0
	}
	return mathx.LogSumExpSlice(naiveForward(lat)[lat.T-1])
}

func (m *Model) naiveMarginals(inst Instance) [][]float64 {
	lat := m.naiveBuildLattice(m.theta, inst)
	if lat.T == 0 {
		return nil
	}
	alpha := naiveForward(lat)
	beta := naiveBackward(lat)
	logZ := mathx.LogSumExpSlice(alpha[lat.T-1])
	out := make([][]float64, lat.T)
	for t := 0; t < lat.T; t++ {
		out[t] = make([]float64, lat.n)
		for j := 0; j < lat.n; j++ {
			out[t][j] = math.Exp(alpha[t][j] + beta[t][j] - logZ)
		}
	}
	return out
}

func (m *Model) naiveEdgeMarginals(inst Instance) [][]float64 {
	lat := m.naiveBuildLattice(m.theta, inst)
	if lat.T == 0 {
		return nil
	}
	alpha := naiveForward(lat)
	beta := naiveBackward(lat)
	logZ := mathx.LogSumExpSlice(alpha[lat.T-1])
	n := lat.n
	out := make([][]float64, lat.T)
	for t := 1; t < lat.T; t++ {
		out[t] = make([]float64, n*n)
		tr := lat.trans[t]
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				out[t][i*n+j] = math.Exp(alpha[t-1][i] + tr[i*n+j] + lat.state[t][j] + beta[t][j] - logZ)
			}
		}
	}
	return out
}

func (m *Model) naiveInstanceNLL(theta []float64, inst Instance, grad []float64) float64 {
	n := m.cfg.NumStates
	T := len(inst.Obs)
	if T == 0 {
		return 0
	}
	lat := m.naiveBuildLattice(theta, inst)
	alpha := naiveForward(lat)
	beta := naiveBackward(lat)
	logZ := mathx.LogSumExpSlice(alpha[T-1])
	gold := naiveSeqScore(lat, inst.Labels)
	nll := logZ - gold
	if grad == nil {
		return nll
	}
	prob := make([]float64, n)
	for t := 0; t < T; t++ {
		var norm float64
		for j := 0; j < n; j++ {
			p := expSafe(alpha[t][j] + beta[t][j] - logZ)
			prob[j] = p
			norm += p
		}
		if norm > 0 {
			for j := 0; j < n; j++ {
				prob[j] /= norm
			}
		}
		prob[inst.Labels[t]] -= 1
		for j := 0; j < n; j++ {
			p := prob[j]
			if p == 0 {
				continue
			}
			grad[m.biasBase+j] += p
			for _, o := range inst.Obs[t] {
				grad[o*n+j] += p
			}
		}
	}
	edge := make([]float64, n*n)
	for t := 1; t < T; t++ {
		tr := lat.trans[t]
		var norm float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				p := expSafe(alpha[t-1][i] + tr[i*n+j] + lat.state[t][j] + beta[t][j] - logZ)
				edge[i*n+j] = p
				norm += p
			}
		}
		if norm > 0 {
			for k := range edge {
				edge[k] /= norm
			}
		}
		edge[inst.Labels[t-1]*n+inst.Labels[t]] -= 1
		for k, p := range edge {
			if p == 0 {
				continue
			}
			grad[m.transBase+k] += p
		}
		for _, o := range inst.Obs[t] {
			r := m.transRank[o]
			if r < 0 {
				continue
			}
			base := m.tobsBase + r*n*n
			for k, p := range edge {
				if p != 0 {
					grad[base+k] += p
				}
			}
		}
	}
	return nll
}

// repeatingInstance builds an instance where a handful of line shapes
// recur many times, the pattern the memoization paths exist for.
func repeatingInstance(rng *rand.Rand, dictLen, T, nShapes int, labeled bool, nStates int) Instance {
	shapes := make([][]int, nShapes)
	for i := range shapes {
		k := 1 + rng.Intn(4)
		shapes[i] = make([]int, k)
		for j := range shapes[i] {
			shapes[i][j] = rng.Intn(dictLen)
		}
	}
	inst := Instance{Obs: make([][]int, T)}
	for t := 0; t < T; t++ {
		inst.Obs[t] = shapes[rng.Intn(nShapes)]
	}
	if labeled {
		inst.Labels = make([]int, T)
		for t := range inst.Labels {
			inst.Labels[t] = rng.Intn(nStates)
		}
	}
	return inst
}

func TestEngineMatchesNaiveDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	dict := makeDict(t, 14)
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(4)
		m := randomModel(rng, dict, n)
		var inst Instance
		if trial%2 == 0 {
			inst = repeatingInstance(rng, dict.Len(), 2+rng.Intn(30), 1+rng.Intn(4), false, n)
		} else {
			inst = randomInstance(rng, dict, 1+rng.Intn(12), n, false)
		}
		wantPath, wantScore := m.naiveDecode(inst)
		// Run twice: the first call populates the model cache, the second
		// exercises the pure cache-hit path.
		for pass := 0; pass < 2; pass++ {
			gotPath, gotScore := m.Decode(inst)
			if gotScore != wantScore {
				t.Fatalf("trial %d pass %d: score %v != naive %v", trial, pass, gotScore, wantScore)
			}
			for i := range wantPath {
				if gotPath[i] != wantPath[i] {
					t.Fatalf("trial %d pass %d: path differs at %d", trial, pass, i)
				}
			}
		}
	}
}

func TestEngineMatchesNaiveMarginalsAndLogZ(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	dict := makeDict(t, 14)
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(4)
		m := randomModel(rng, dict, n)
		inst := repeatingInstance(rng, dict.Len(), 2+rng.Intn(30), 1+rng.Intn(5), false, n)
		wantZ := m.naiveLogZ(inst)
		wantM := m.naiveMarginals(inst)
		wantE := m.naiveEdgeMarginals(inst)
		for pass := 0; pass < 2; pass++ {
			if gotZ := m.LogZ(inst); gotZ != wantZ {
				t.Fatalf("trial %d pass %d: LogZ %v != naive %v", trial, pass, gotZ, wantZ)
			}
			gotM := m.Marginals(inst)
			for tt := range wantM {
				for j := range wantM[tt] {
					if gotM[tt][j] != wantM[tt][j] {
						t.Fatalf("trial %d pass %d: marginal [%d][%d] %v != naive %v",
							trial, pass, tt, j, gotM[tt][j], wantM[tt][j])
					}
				}
			}
			gotE := m.EdgeMarginals(inst)
			if (gotE[0] == nil) != (wantE[0] == nil) {
				t.Fatalf("trial %d: edge marginal t=0 shape differs", trial)
			}
			for tt := 1; tt < len(wantE); tt++ {
				for k := range wantE[tt] {
					if gotE[tt][k] != wantE[tt][k] {
						t.Fatalf("trial %d pass %d: edge marginal [%d][%d] %v != naive %v",
							trial, pass, tt, k, gotE[tt][k], wantE[tt][k])
					}
				}
			}
		}
	}
}

func TestEngineMatchesNaiveGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	dict := makeDict(t, 12)
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(4)
		m := randomModel(rng, dict, n)
		inst := repeatingInstance(rng, dict.Len(), 2+rng.Intn(20), 1+rng.Intn(4), true, n)
		theta := m.Theta()
		wantGrad := make([]float64, m.NumFeatures())
		wantNLL := m.naiveInstanceNLL(theta, inst, wantGrad)
		gotGrad := make([]float64, m.NumFeatures())
		var s scratch
		gotNLL := m.instanceNLL(&s, theta, inst, gotGrad)
		if gotNLL != wantNLL {
			t.Fatalf("trial %d: nll %v != naive %v", trial, gotNLL, wantNLL)
		}
		for k := range wantGrad {
			if gotGrad[k] != wantGrad[k] {
				t.Fatalf("trial %d: grad[%d] %v != naive %v", trial, k, gotGrad[k], wantGrad[k])
			}
		}
		// Scratch reuse across instances must not leak state.
		inst2 := randomInstance(rng, dict, 1+rng.Intn(8), n, true)
		want2 := make([]float64, m.NumFeatures())
		got2 := make([]float64, m.NumFeatures())
		if a, b := m.naiveInstanceNLL(theta, inst2, want2), m.instanceNLL(&s, theta, inst2, got2); a != b {
			t.Fatalf("trial %d: reused-scratch nll %v != naive %v", trial, b, a)
		}
		for k := range want2 {
			if got2[k] != want2[k] {
				t.Fatalf("trial %d: reused-scratch grad[%d] differs", trial, k)
			}
		}
	}
}

func TestPosteriorMatchesSeparateCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	dict := makeDict(t, 12)
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(4)
		m := randomModel(rng, dict, n)
		inst := repeatingInstance(rng, dict.Len(), 1+rng.Intn(25), 1+rng.Intn(4), false, n)
		post := m.Posterior(inst)
		path, score := m.Decode(inst)
		marg := m.Marginals(inst)
		logZ := m.LogZ(inst)
		if post.Score != score || post.LogZ != logZ {
			t.Fatalf("trial %d: posterior (score %v, logZ %v) vs separate (%v, %v)",
				trial, post.Score, post.LogZ, score, logZ)
		}
		for i := range path {
			if post.Path[i] != path[i] {
				t.Fatalf("trial %d: posterior path differs at %d", trial, i)
			}
		}
		for tt := range marg {
			for j := range marg[tt] {
				if post.Marginals[tt][j] != marg[tt][j] {
					t.Fatalf("trial %d: posterior marginal [%d][%d] differs", trial, tt, j)
				}
			}
		}
	}
}

func TestPosteriorEmptyInstance(t *testing.T) {
	dict := makeDict(t, 3)
	m := New(dict, Config{NumStates: 2})
	post := m.Posterior(Instance{})
	if post.Path != nil || post.Marginals != nil || post.LogZ != 0 || post.Score != 0 {
		t.Errorf("empty posterior: %+v", post)
	}
}

// TestScoreCacheInvalidatedOnThetaChange guards the central memoization
// invariant: cached rows must never survive a theta update.
func TestScoreCacheInvalidatedOnThetaChange(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	dict := makeDict(t, 10)
	n := 3
	m := randomModel(rng, dict, n)
	inst := randomInstance(rng, dict, 6, n, false)
	_, before := m.Decode(inst) // populate the cache
	theta := mathx.Clone(m.Theta())
	for i := range theta {
		theta[i] += 0.5
	}
	if err := m.SetTheta(theta); err != nil {
		t.Fatal(err)
	}
	_, after := m.Decode(inst)
	if _, naive := m.naiveDecode(inst); after != naive {
		t.Fatalf("post-SetTheta decode score %v, naive %v (stale cache?)", after, naive)
	}
	if after == before {
		t.Fatal("decode score unchanged after theta shift — cache not invalidated")
	}
	// WarmStartFrom also mutates theta in place and must invalidate.
	m2 := randomModel(rng, dict, n)
	_, _ = m2.Decode(inst)
	m2.WarmStartFrom(m)
	if _, naive := m2.naiveDecode(inst); func() float64 { _, s := m2.Decode(inst); return s }() != naive {
		t.Fatal("stale cache after WarmStartFrom")
	}
}

// TestDecodeSteadyStateAllocs pins the zero-allocation property: after
// warm-up, Decode allocates only the escaping path slice.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(106))
	dict := makeDict(t, 12)
	n := 6
	m := randomModel(rng, dict, n)
	inst := repeatingInstance(rng, dict.Len(), 40, 6, false, n)
	m.Decode(inst) // warm the score cache and the scratch pool
	allocs := testing.AllocsPerRun(200, func() {
		m.Decode(inst)
	})
	if allocs > 2 {
		t.Errorf("Decode steady state: %.1f allocs/op, want <= 2 (path only)", allocs)
	}
}

// TestLogZSteadyStateAllocs: LogZ has no escaping output at all.
func TestLogZSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(107))
	dict := makeDict(t, 12)
	n := 6
	m := randomModel(rng, dict, n)
	inst := repeatingInstance(rng, dict.Len(), 40, 6, false, n)
	m.LogZ(inst)
	allocs := testing.AllocsPerRun(200, func() {
		m.LogZ(inst)
	})
	if allocs > 1 {
		t.Errorf("LogZ steady state: %.1f allocs/op, want <= 1", allocs)
	}
}

func TestScoreCacheCollisionSafe(t *testing.T) {
	// Force two shapes through lookup with the same hash by checking the
	// collision guard directly: a lookup with mismatched obs must miss.
	c := new(scoreCache)
	obsA := []int{1, 2, 3}
	c.insert(42, obsA, []float64{1}, []float64{2})
	if _, ok := c.lookup(42, []int{4, 5, 6}); ok {
		t.Fatal("lookup returned an entry for different observations")
	}
	if e, ok := c.lookup(42, obsA); !ok || e.state[0] != 1 {
		t.Fatal("lookup missed the inserted entry")
	}
}

func TestScoreCacheCapBoundsInsertions(t *testing.T) {
	c := new(scoreCache)
	for i := 0; i < maxScoreCacheEntries+100; i++ {
		c.insert(uint64(i), []int{i}, []float64{0}, []float64{0})
	}
	if got := c.count.Load(); got > maxScoreCacheEntries {
		t.Fatalf("cache grew to %d entries, cap is %d", got, maxScoreCacheEntries)
	}
}

// TestScoreCacheConcurrent races inserts against lookups of the same
// signatures; every hit must return the rows inserted for its shape.
// Run under -race it also checks the lock-free publication.
func TestScoreCacheConcurrent(t *testing.T) {
	c := new(scoreCache)
	const shapes = 2000
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < shapes; k++ {
				i := (k*7 + g*131) % shapes
				obs := []int{i, i + 1}
				sig := obsSignature(obs)
				if e, ok := c.lookup(sig, obs); ok {
					if e.state[0] != float64(i) || e.trans[1] != float64(-i) {
						t.Errorf("shape %d: got rows %v %v", i, e.state, e.trans)
						return
					}
					continue
				}
				c.insert(sig, obs, []float64{float64(i)}, []float64{0, float64(-i)})
			}
		}(g)
	}
	wg.Wait()
	if got := c.count.Load(); got != shapes {
		t.Errorf("cache holds %d entries, want %d", got, shapes)
	}
}

// TestScoreCacheInsertAllocs checks that filling a cold cache allocates
// per slab, not per line shape: the cold-cache parse of a survey record
// inserts a score entry for most of its lines.
func TestScoreCacheInsertAllocs(t *testing.T) {
	c := new(scoreCache)
	state, trans := make([]float64, 12), make([]float64, 144)
	obs := make([]int, 20)
	next := uint64(0)
	allocs := testing.AllocsPerRun(4000, func() {
		next++
		obs[0] = int(next)
		c.insert(obsSignature(obs), obs, state, trans)
	})
	if allocs > 0.1 {
		t.Errorf("insert allocates %.3f/op, want <= 0.1", allocs)
	}
}
