package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"acic/internal/cpu"
	"acic/internal/mem"
	"acic/internal/workload"
)

// laneDigest is the SHA-256 over the JSON of every Run result in the
// lane-pin grid (laneCells). It pins both simulation lanes byte for byte:
// a change that alters any counter of any cell — full or set-sampled —
// changes it. It may change only together with a cacheSchemaVersion bump
// (keys.go), because a changed digest means changed cached results.
const laneDigest = "2bff396c71ada2da55f7dd6d2eb687a5651d6dfee9a4fd330bc306a6c7cdcc97"

// laneCells calls f for every app × prefetcher platform × scheme × lane
// (the full lane and the set-sampled lane at stride 8) of the lane-pin
// grid, in a fixed order, with the cell's workload and options.
func laneCells(t *testing.T, f func(name string, w *Workload, scheme string, opts Options)) {
	t.Helper()
	for _, app := range []string{"web-search", "media-streaming"} {
		prof, ok := workload.ByName(app)
		if !ok {
			t.Fatalf("unknown workload %q", app)
		}
		w := Prepare(prof, 60_000)
		for _, pf := range Prefetchers() {
			for _, scheme := range SchemeNames() {
				for _, lane := range []cpu.SampleConfig{{}, {Stride: 8, Offset: 3}} {
					opts := DefaultOptions()
					opts.Prefetcher = pf
					opts.Sample = lane
					f(fmt.Sprintf("%s|%s|%s|stride=%d", app, pf, scheme, lane.Stride), w, scheme, opts)
				}
			}
		}
	}
}

// TestLaneDigest pins the exact output of both simulation lanes. The
// bounds test (TestSampledMatchesFullWithinBounds) and the determinism
// test only say the sampled lane is close to the full lane and repeatable;
// this one says a refactor of either lane changed nothing. On a deliberate
// model change, bump cacheSchemaVersion and re-record the digest printed
// below.
func TestLaneDigest(t *testing.T) {
	h := sha256.New()
	laneCells(t, func(name string, w *Workload, scheme string, opts Options) {
		r, err := Run(w, scheme, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		js, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s\n%s\n", name, js)
	})
	if got := hex.EncodeToString(h.Sum(nil)); got != laneDigest {
		t.Errorf("lane digest changed:\n  got  %s\n  want %s\n"+
			"a byte-identity refactor must not change it; a model change bumps cacheSchemaVersion and records the new digest",
			got, laneDigest)
	}
}

// TestFillProtocolInvariants checks the counting contract of the fill
// protocol on the raw (not extrapolated) Result of every lane-pin cell:
// late misses are a subset of demand misses, demand misses a subset of
// the accesses the lane simulated, every subsystem access is a hit or a
// miss, every non-late demand miss is a subsystem miss, and the stall
// breakdown fits in the cycle budget. The full lane also offers every
// block access to the subsystem; the sampled lane never visits the
// accesses it skips, by design.
func TestFillProtocolInvariants(t *testing.T) {
	laneCells(t, func(name string, w *Workload, scheme string, opts Options) {
		sub, _, err := buildScheme(scheme, w, opts.Sample)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg, err := platformConfig(opts.Prefetcher)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Sample = opts.Sample
		r := cpu.NewSimulator(cfg, w.Prog, sub, mem.New(mem.DefaultConfig())).Run(warmup(w, opts))
		ic := r.ICache
		accesses := r.BlockAccesses
		if opts.Sample.Enabled() {
			accesses = r.SampledAccesses
		}
		if r.LateMisses > r.DemandMisses {
			t.Errorf("%s: late misses %d > demand misses %d", name, r.LateMisses, r.DemandMisses)
		}
		if r.DemandMisses > uint64(accesses) {
			t.Errorf("%s: demand misses %d > simulated accesses %d", name, r.DemandMisses, accesses)
		}
		if ic.Hits+ic.Misses != ic.Accesses {
			t.Errorf("%s: icache hits %d + misses %d != accesses %d", name, ic.Hits, ic.Misses, ic.Accesses)
		}
		if ic.Misses < r.DemandMisses-r.LateMisses {
			t.Errorf("%s: icache misses %d < non-late demand misses %d", name, ic.Misses, r.DemandMisses-r.LateMisses)
		}
		if r.IMissStallCycles+r.RedirectStallCycles > r.Cycles {
			t.Errorf("%s: stalls %d + %d exceed cycles %d", name, r.IMissStallCycles, r.RedirectStallCycles, r.Cycles)
		}
		if !opts.Sample.Enabled() && ic.Accesses+ic.Skipped != uint64(len(w.Prog.Blocks)) {
			t.Errorf("%s: icache accesses %d + skipped %d != block accesses %d", name, ic.Accesses, ic.Skipped, len(w.Prog.Blocks))
		}
	})
}
