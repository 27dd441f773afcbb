package stack

import (
	"context"
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/modelreg"
)

// AdminHandlers registers the stack's operator endpoints on mux:
//
//	POST /admin/reload          Reload, the HTTP twin of SIGHUP
//	GET  /admin/model           the live model and the drift sentinel's view
//	GET  /admin/models          every family's stages and versions (registry source)
//	POST /admin/model/promote   ?version=V[&family=F] one stage forward
//	POST /admin/model/rollback  ?version=V[&family=F] serving pointer back
//	GET  /admin/tiered          L0 template and tier counters (Tiered)
//	GET  /admin/cluster         ring ownership and a live peer poll (Cluster)
//
// A stack from OpenStore has none of them.
func (s *Stack) AdminHandlers(mux *http.ServeMux) {
	if s.Model == nil {
		return
	}
	mux.HandleFunc("/admin/reload", s.adminReload)
	mux.HandleFunc("/admin/model", func(w http.ResponseWriter, r *http.Request) {
		snap := s.Model.Current()
		writeJSON(w, map[string]any{
			"version": snap.Version, "seq": snap.Seq, "artifact": snap.Info.String(), "path": snap.Path,
			"state": s.Model.State(), "flagged": s.Model.Flagged(),
		})
	})
	if reg := s.Model.Registry(); reg != nil {
		mux.HandleFunc("/admin/models", func(w http.ResponseWriter, r *http.Request) {
			listings, err := reg.List()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			writeJSON(w, listings)
		})
		mux.HandleFunc("/admin/model/promote", s.adminStageMove(false))
		mux.HandleFunc("/admin/model/rollback", s.adminStageMove(true))
	}
	if s.Router != nil {
		mux.HandleFunc("/admin/tiered", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, s.Router.Status())
		})
	}
	if s.Node != nil {
		mux.HandleFunc("/admin/cluster", func(w http.ResponseWriter, r *http.Request) {
			ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
			defer cancel()
			writeJSON(w, s.Node.ClusterStatus(ctx))
		})
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// adminReload re-reads the model source on POST.
func (s *Stack) adminReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	snap, changed, err := s.Reload()
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	writeJSON(w, map[string]any{
		"version": snap.Version, "seq": snap.Seq,
		"artifact": snap.Info.String(), "changed": changed,
	})
}

// adminStageMove advances ?version=V one stage (candidate → shadow →
// serving) or rolls the family's serving pointer back to it on POST.
// Promoting the version the registry already serves (moved there out of
// band, by the CLI or another process) moves no pointer. When the
// family's serving version is V the stack converges on it: Reload swaps
// this process and, when clustered, a Rollout pushes its artifact to
// every peer so the ring moves together. This is the only way a
// registry move reaches the fleet; joiners always fetch the live model.
// This node already serves V by then, so its own apply is a no-op and
// its cache is invalidated at most once.
func (s *Stack) adminStageMove(rollback bool) http.HandlerFunc {
	reg := s.Model.Registry()
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		family := r.URL.Query().Get("family")
		if family == "" {
			family = s.Model.Family()
		}
		version := r.URL.Query().Get("version")
		if version == "" {
			http.Error(w, "version query parameter required", http.StatusBadRequest)
			return
		}
		var stage modelreg.Stage
		var err error
		if rollback {
			stage, err = modelreg.StageServing, reg.Rollback(family, version)
		} else if res, rerr := reg.ResolveServing(family); rerr == nil && res.Version == version {
			stage = modelreg.StageServing
		} else {
			stage, err = reg.Promote(family, version)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		resp := map[string]any{"family": family, "version": version, "stage": stage.String()}
		if stage == modelreg.StageServing {
			snap, changed, err := s.Reload()
			if err != nil {
				http.Error(w, err.Error(), http.StatusUnprocessableEntity)
				return
			}
			resp["serving"], resp["swapped"] = snap.Version, changed
			if s.Node != nil && snap.Family == family && snap.SemVer == version {
				ctx, cancel := context.WithTimeout(r.Context(), time.Minute)
				report, err := s.Node.Rollout(ctx, cluster.Artifact{
					Family: snap.Family, SemVer: snap.SemVer, Data: snap.Artifact,
				}, 0)
				cancel()
				if err != nil {
					s.log.Printf("admin %s: cluster rollout: %v", stage, err)
				}
				resp["rollout"] = report
			}
		}
		s.log.Printf("admin stage move: %s/%s -> %s", family, version, stage)
		writeJSON(w, resp)
	}
}
