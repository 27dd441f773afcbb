package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/lifecycle"
	"repro/internal/serve"
	"repro/internal/synth"
)

// TestClusterE2EOwnership spins a 3-node in-process cluster and checks
// the routing invariant end to end: whichever node a request lands on,
// the record is produced by the domain's ring owner.
func TestClusterE2EOwnership(t *testing.T) {
	ids := []string{"node-a", "node-b", "node-c"}
	var nodes []*Node
	for _, id := range ids {
		nodes = append(nodes, testNode(t, id, echoParse(id), Options{}))
	}
	link(nodes...)

	ctx := context.Background()
	served := map[string]int{}
	for i := 0; i < 300; i++ {
		d := fmt.Sprintf("domain%d.com", i)
		entry := nodes[i%len(nodes)] // requests land round-robin
		rec, err := entry.ParseDomain(ctx, d, "whois "+d)
		if err != nil {
			t.Fatalf("%s via %s: %v", d, entry.ID(), err)
		}
		owner := entry.Ring().Lookup(d)
		if rec.Registrar != owner {
			t.Fatalf("%s produced by %q, ring owner is %q", d, rec.Registrar, owner)
		}
		served[rec.Registrar]++
	}
	for _, id := range ids {
		if served[id] == 0 {
			t.Fatalf("node %s never served; distribution broken (%v)", id, served)
		}
	}
}

// TestClusterE2EHotSwapDuringTraffic is the coordinated-hot-swap
// acceptance test: three nodes serve live traffic through lifecycle
// managers while a rollout staggers a new model across the ring. Zero
// requests may fail, and every response must be attributable to exactly
// one model version — the old or the new, never a blend or a blank.
func TestClusterE2EHotSwapDuringTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models; skipped in -short")
	}
	artA, artB := artifacts(t)

	ids := []string{"node-a", "node-b", "node-c"}
	var nodes []*Node
	var oldVersion string
	for _, id := range ids {
		mgr, err := lifecycle.OpenBytes(artA.Data, "", lifecycle.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ps := serve.NewFunc(mgr.Parse, serve.Options{Workers: 4})
		mgr.Attach(ps)
		t.Cleanup(func() { ps.Close() })
		n, err := NewNode(ps, mgr, Options{ID: id, Ring: RingOptions{LoadFactor: -1}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes = append(nodes, n)
		oldVersion = mgr.Current().Version
	}
	link(nodes...)

	recs := synth.GenerateLabeled(synth.Config{N: 60, Seed: 99})
	ctx := context.Background()

	var mu sync.Mutex
	seen := map[string]int{} // model version -> responses
	var failures []error
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r := recs[(g*17+i)%len(recs)]
				entry := nodes[(g+i)%len(nodes)]
				rec, err := entry.ParseDomain(ctx, r.Domain, r.Text)
				mu.Lock()
				switch {
				case err != nil:
					failures = append(failures, fmt.Errorf("%s via %s: %w", r.Domain, entry.ID(), err))
				case rec == nil || rec.ModelVersion == "":
					failures = append(failures, fmt.Errorf("%s: response not attributable to a model version", r.Domain))
				default:
					seen[rec.ModelVersion]++
				}
				mu.Unlock()
			}
		}(g)
	}

	// Let traffic warm both the owner caches and the forward paths,
	// then roll the new model across the ring under load.
	time.Sleep(50 * time.Millisecond)
	rep, err := nodes[0].Rollout(ctx, artB, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	if len(failures) > 0 {
		t.Fatalf("%d requests failed during the hot swap; first: %v", len(failures), failures[0])
	}
	if len(rep.Applied) != 3 || rep.Failed != nil {
		t.Fatalf("rollout report %+v", rep)
	}
	if rep.Version == oldVersion || rep.Version == "" {
		t.Fatalf("rollout version %q did not change from %q", rep.Version, oldVersion)
	}
	for v := range seen {
		if v != oldVersion && v != rep.Version {
			t.Fatalf("response attributed to unknown model version %q (known: %q, %q)", v, oldVersion, rep.Version)
		}
	}
	if seen[oldVersion] == 0 {
		t.Error("no traffic was served by the old model; swap happened before traffic started")
	}

	// After the rollout settles, every node answers with the new version.
	for _, n := range nodes {
		if got := n.Status().ModelVersion; got != rep.Version {
			t.Fatalf("%s still serves %q, want %q", n.ID(), got, rep.Version)
		}
		rec, err := n.HandleParse(ctx, recs[0].Domain, recs[0].Text)
		if err != nil {
			t.Fatal(err)
		}
		if rec.ModelVersion != rep.Version {
			t.Fatalf("%s parse stamped %q after rollout, want %q", n.ID(), rec.ModelVersion, rep.Version)
		}
	}
}

// TestClusterE2EMembershipChurn keeps traffic flowing while a fourth
// node joins and leaves repeatedly. No request may fail, and every
// response must come from a node that was a member at some point —
// the -race build doubles as the rebalance safety assertion.
func TestClusterE2EMembershipChurn(t *testing.T) {
	stable := []string{"node-a", "node-b", "node-c"}
	var nodes []*Node
	for _, id := range stable {
		nodes = append(nodes, testNode(t, id, echoParse(id), Options{}))
	}
	link(nodes...)
	churner := testNode(t, "node-d", echoParse("node-d"), Options{})

	valid := map[string]bool{"node-a": true, "node-b": true, "node-c": true, "node-d": true}
	ctx := context.Background()
	stop := make(chan struct{})
	errCh := make(chan error, 16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				d := fmt.Sprintf("domain%d.com", (g*31+i)%200)
				entry := nodes[(g+i)%len(nodes)]
				rec, err := entry.ParseDomain(ctx, d, "whois "+d)
				if err != nil {
					errCh <- fmt.Errorf("%s via %s: %w", d, entry.ID(), err)
					return
				}
				if !valid[rec.Registrar] {
					errCh <- fmt.Errorf("%s served by unknown member %q", d, rec.Registrar)
					return
				}
			}
		}(g)
	}

	for round := 0; round < 20; round++ {
		for _, n := range nodes {
			n.AddPeer("node-d", &InprocClient{B: churner})
			churner.AddPeer(n.ID(), &InprocClient{B: n})
		}
		time.Sleep(2 * time.Millisecond)
		for _, n := range nodes {
			n.RemovePeer("node-d")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
