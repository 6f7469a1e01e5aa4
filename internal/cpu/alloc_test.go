package cpu

import (
	"testing"

	"acic/internal/analysis"
	"acic/internal/branch"
	"acic/internal/bypass"
	"acic/internal/core"
	"acic/internal/icache"
	"acic/internal/mem"
	"acic/internal/policy"
	"acic/internal/prefetch"
	"acic/internal/workload"
)

// TestSteadyStateZeroAllocs pins the zero-allocation property of the
// simulation hot path: once warm, simulated cycles — demand fetches,
// prefetch fills, policy updates, admission decisions, data-side hierarchy
// accesses — must not touch the heap, for every scheme family with
// per-block state (flat tables, carried next-use metadata, reusable access
// contexts). A regression here silently reintroduces GC pressure into
// every experiment sweep.
func TestSteadyStateZeroAllocs(t *testing.T) {
	prof, ok := workload.ByName("media-streaming")
	if !ok {
		t.Fatal("media-streaming profile missing")
	}
	const n = 150_000
	tr := workload.Generate(prof, n)
	ann := branch.NewFrontEnd().Annotate(tr)
	blocks := tr.BlockAccesses()
	oracle := analysis.NewNextUseOracle(blocks).Func()
	nextAt := analysis.NextUseArray(blocks)

	base := func() icache.Config { return icache.Config{Sets: 64, Ways: 8} }
	subsystems := map[string]func() icache.Subsystem{
		"lru": func() icache.Subsystem {
			c := base()
			c.Policy = policy.NewLRU()
			return icache.MustNew(c)
		},
		"opt": func() icache.Subsystem {
			c := base()
			c.Policy = policy.NewOPT()
			c.NextUse = oracle
			c.NextAt = nextAt
			return icache.MustNew(c)
		},
		"opt-bypass": func() icache.Subsystem {
			c := base()
			c.Policy = policy.NewLRU()
			c.FilterSlots = 16
			c.Bypass = bypass.OPTBypass{}
			c.NextUse = oracle
			c.NextAt = nextAt
			return icache.MustNew(c)
		},
		"harmony": func() icache.Subsystem {
			c := base()
			c.Policy = policy.NewHawkeye(policy.DefaultHawkeyeConfig())
			return icache.MustNew(c)
		},
		"acic": func() icache.Subsystem {
			cc := core.DefaultConfig()
			c := base()
			c.Policy = policy.NewLRU()
			c.ACIC = &cc
			return icache.MustNew(c)
		},
		"eaf": func() icache.Subsystem {
			c := base()
			c.Policy = policy.NewLRU()
			c.Bypass = bypass.NewEAF(bypass.DefaultEAFConfig())
			return icache.MustNew(c)
		},
		"ripple-lite": func() icache.Subsystem {
			c := base()
			c.Policy = policy.NewProfileGuided(policy.Profile(blocks[:len(blocks)/10], 512))
			return icache.MustNew(c)
		},
	}

	// steadyAllocs warms s to the middle of the trace and reports the
	// allocations per 1024-instruction advance. AllocsPerRun truncates to
	// whole allocations per run, so each run covers many cycles: an
	// allocation per prefetch completion or per miss still shows, where a
	// single-cycle run would average it away.
	steadyAllocs := func(t *testing.T, s *Simulator) float64 {
		t.Helper()
		s.start(0)
		bound := n / 2
		if s.runTo(bound) {
			t.Fatal("trace too short to measure steady state")
		}
		return testing.AllocsPerRun(40, func() {
			bound += 1024
			s.runTo(bound)
		})
	}

	for name, mk := range subsystems {
		t.Run(name, func(t *testing.T) {
			s := NewSimulator(DefaultConfig(), NewProgram(tr, ann), mk(), mem.New(mem.DefaultConfig()))
			if allocs := steadyAllocs(t, s); allocs != 0 {
				t.Errorf("%s: steady-state advance allocates %.2f times", name, allocs)
			}
		})
	}

	// The gang path must preserve the property: once its members are warm,
	// advancing the whole gang through traversal windows stays off the heap.
	t.Run("gang", func(t *testing.T) {
		prog := NewProgram(tr, ann)
		names := []string{"lru", "opt", "harmony", "acic", "eaf"}
		hiers := mem.NewGang(mem.DefaultConfig(), len(names))
		members := make([]GangMember, len(names))
		for i, name := range names {
			members[i] = GangMember{Cfg: DefaultConfig(), Sub: subsystems[name](), Hier: hiers[i]}
		}
		g := NewGang(prog, members, DefaultGangWindow)
		for i := range g.sims {
			g.sims[i].start(0)
		}
		bound := 0
		for bound < 3*n/4 {
			bound += DefaultGangWindow
			g.advance(bound)
		}
		if g.advance(bound) == 0 {
			t.Fatal("trace too short to measure gang steady state")
		}
		allocs := testing.AllocsPerRun(200, func() {
			bound += 64
			g.advance(bound)
		})
		if allocs != 0 {
			t.Errorf("gang: steady-state advance allocates %.2f times", allocs)
		}
	})

	// The set-sampled lane shares the fill protocol (prefetch issue and
	// completion, demand merge, misses) with the full lane; once warm,
	// advancing it must stay off the heap too, under FDP emulation and
	// under a table prefetcher's pending list.
	t.Run("sampled", func(t *testing.T) {
		sample := SampleConfig{Stride: 8, Offset: 3}
		platforms := map[string]func(*Config){
			"fdp": func(*Config) {},
			"entangling": func(c *Config) {
				c.UseFDP = false
				c.Extra = prefetch.NewEntangling(prefetch.DefaultEntanglingConfig())
			},
		}
		for pf, apply := range platforms {
			cfg := DefaultConfig()
			apply(&cfg)
			cfg.Sample = sample
			cc := core.DefaultConfig()
			ic := base()
			ic.Policy = policy.NewLRU()
			ic.ACIC = &cc
			ic.Sample = sample.Filter()
			s := NewSimulator(cfg, NewProgram(tr, ann), icache.MustNew(ic), mem.New(mem.DefaultConfig()))
			if allocs := steadyAllocs(t, s); allocs != 0 {
				t.Errorf("sampled/%s: steady-state advance allocates %.2f times", pf, allocs)
			}
		}
	})
}
