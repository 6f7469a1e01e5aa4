package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// refTick is the full-scan Tick the busy bitset replaced: it visits every
// one of the 2^HistoryBits queues on each call. It mutates the same fields
// as Tick (busy bits aside, which only Tick reads), so a predictor driven
// through refTick is the reference the bitset walk must match.
func refTick(p *Predictor, cycle int64) {
	if cycle <= p.now {
		return
	}
	elapsed := cycle - p.now
	p.now = cycle
	if len(p.pendHRT) > 0 {
		kept := p.pendHRT[:0]
		for _, s := range p.pendHRT {
			if s.due <= cycle {
				p.hrt[s.idx] = ((p.hrt[s.idx] << 1) | b2u(s.outcome)) & p.histMask
			} else {
				kept = append(kept, s)
			}
		}
		p.pendHRT = kept
	}
	for h := range p.queues {
		q := p.queues[h]
		pops := 0
		for pops < len(q) && q[pops].due <= cycle && int64(pops) < elapsed {
			p.applyPT(uint32(h), q[pops].increment)
			pops++
		}
		if pops > 0 {
			p.queues[h] = q[:copy(q, q[pops:])]
		}
	}
}

// TestPredictorTickMatchesFullScan drives a bitset predictor and a
// full-scan reference through the same random Train/Tick stream — bursts
// that overflow the update queues, multi-cycle gaps (elapsed > 1), and
// same-cycle aliasing — and requires every PT counter, HRT entry, queue
// and stat to agree after each step.
func TestPredictorTickMatchesFullScan(t *testing.T) {
	for _, histBits := range []int{4, 8, 10} {
		cfg := DefaultPredictorConfig()
		cfg.HistoryBits = histBits
		cfg.HRTEntries = 64 // small HRT: histories repeat, queues fill and overflow
		cfg.QueueSlots = 3
		got, want := NewPredictor(cfg), NewPredictor(cfg)
		rng := rand.New(rand.NewSource(int64(histBits)))
		cycle := int64(0)
		for step := 0; step < 20000; step++ {
			switch r := rng.Intn(10); {
			case r < 6:
				tag, outcome := uint32(rng.Intn(256)), rng.Intn(3) > 0
				got.Train(tag, outcome)
				want.Train(tag, outcome)
			default:
				cycle += 1 + int64(rng.Intn(4)) // 1..4 cycles: exercises elapsed > 1
				got.Tick(cycle)
				refTick(want, cycle)
			}
			if step%97 == 0 || step == 19999 {
				comparePredictors(t, histBits, step, got, want)
				if t.Failed() {
					return
				}
			}
		}
		if got.QueueOverflow == 0 || got.AliasDrops == 0 {
			t.Errorf("history %d: stream never overflowed a queue (%d) or aliased (%d)", histBits, got.QueueOverflow, got.AliasDrops)
		}
	}
}

func comparePredictors(t *testing.T, histBits, step int, got, want *Predictor) {
	t.Helper()
	if !reflect.DeepEqual(got.pt, want.pt) {
		t.Errorf("history %d step %d: PT counters diverge", histBits, step)
	}
	if !reflect.DeepEqual(got.hrt, want.hrt) {
		t.Errorf("history %d step %d: HRT entries diverge", histBits, step)
	}
	for h := range got.queues {
		if !slices.Equal(got.queues[h], want.queues[h]) {
			t.Errorf("history %d step %d: queue %d diverges", histBits, step, h)
		}
		if busy := got.busy[h/64]>>(h%64)&1 == 1; busy != (len(got.queues[h]) > 0) {
			t.Errorf("history %d step %d: busy bit %d = %v with %d queued", histBits, step, h, busy, len(got.queues[h]))
		}
	}
	if got.Predictions != want.Predictions || got.Admits != want.Admits || got.TrainEvents != want.TrainEvents ||
		got.AliasDrops != want.AliasDrops || got.QueueOverflow != want.QueueOverflow || got.now != want.now {
		t.Errorf("history %d step %d: stats diverge", histBits, step)
	}
}

// BenchmarkPredictorTick measures one Tick at each Fig 15 history width
// with a steady trickle of training, the shape the simulator drives.
func BenchmarkPredictorTick(b *testing.B) {
	for _, histBits := range []int{4, 8, 10} {
		b.Run(fmt.Sprintf("h%d", histBits), func(b *testing.B) {
			cfg := DefaultPredictorConfig()
			cfg.HistoryBits = histBits
			p := NewPredictor(cfg)
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				if i%4 == 0 {
					p.Train(uint32(i), i%3 == 0)
				}
				p.Tick(int64(i + 1))
			}
		})
	}
}
