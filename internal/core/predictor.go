package core

import "math/bits"

// The two-level admission predictor (Fig 4) mirrors the Yeh/Patt two-level
// branch predictor. The first level, the History Register Table (HRT), is
// indexed by a hash of the i-Filter victim's partial tag; each entry is a
// short shift register of past comparison outcomes (1 = the victim was
// re-accessed sooner than its i-cache contender). The second level, the
// Pattern Table (PT), is indexed by the history value; each entry is a
// saturating counter thresholded to produce the admit/drop decision.
//
// Updates are not instantaneous in hardware: HRT is read, then PT is
// updated one cycle later through a 10-slot per-entry update queue (Fig 8),
// and the HRT history register shifts after its value has been handed to
// the PT updater. The predictor models that pipeline when UpdateLatency is
// positive, so predictions made in the shadow of an in-flight update see
// stale state exactly as the real datapath would (Fig 9 / Fig 14).

// PredictorConfig sizes the two-level predictor. Defaults follow Table I.
type PredictorConfig struct {
	HRTEntries    int   // number of history registers (1024)
	HistoryBits   int   // bits per history register (4) -> PT has 2^bits entries
	CounterBits   int   // PT counter width (5)
	QueueSlots    int   // PT update queue slots per entry (10)
	UpdateLatency int64 // cycles from outcome to PT visibility (2; 0 = instant)
	Threshold     int64 // admit when counter >= Threshold; <0 selects midpoint
}

// DefaultPredictorConfig matches Table I: 1024-entry HRT with 4-bit
// histories, a 16-entry PT with 5-bit counters, 10-slot update queues, and
// the 2-cycle parallel update path.
func DefaultPredictorConfig() PredictorConfig {
	return PredictorConfig{
		HRTEntries:    1024,
		HistoryBits:   4,
		CounterBits:   5,
		QueueSlots:    10,
		UpdateLatency: 2,
		Threshold:     -1,
	}
}

func (c PredictorConfig) threshold() int64 {
	if c.Threshold >= 0 {
		return c.Threshold
	}
	return int64(1) << (c.CounterBits - 1) // midpoint of the counter range
}

type ptUpdate struct {
	due       int64
	increment bool
}

type hrtShift struct {
	due     int64
	idx     int
	outcome bool
}

// Predictor is the two-level admission predictor.
type Predictor struct {
	cfg       PredictorConfig
	hrt       []uint32
	pt        []int64
	ctrMax    int64
	threshold int64
	histMask  uint32

	queues [][]ptUpdate // pending PT updates, one FIFO per PT entry
	// busy has bit h set iff queues[h] is non-empty, so Tick visits only
	// the queues with pending updates instead of all 2^HistoryBits.
	busy      []uint64
	pendHRT   []hrtShift // HRT shifts in flight
	now       int64
	trainedAt []int64 // per-HRT-entry cycle of last training (alias filter)

	// Stats.
	Predictions   uint64
	Admits        uint64
	TrainEvents   uint64
	AliasDrops    uint64
	QueueOverflow uint64
}

// NewPredictor creates a predictor from cfg.
func NewPredictor(cfg PredictorConfig) *Predictor {
	if cfg.HRTEntries <= 0 || cfg.HistoryBits <= 0 || cfg.HistoryBits > 20 || cfg.CounterBits <= 0 || cfg.CounterBits > 62 {
		panic("core: bad predictor configuration")
	}
	p := &Predictor{
		cfg:       cfg,
		hrt:       make([]uint32, cfg.HRTEntries),
		pt:        make([]int64, 1<<cfg.HistoryBits),
		ctrMax:    int64(1)<<cfg.CounterBits - 1,
		threshold: cfg.threshold(),
		histMask:  uint32(1)<<cfg.HistoryBits - 1,
		queues:    make([][]ptUpdate, 1<<cfg.HistoryBits),
		busy:      make([]uint64, (1<<cfg.HistoryBits+63)/64),
		trainedAt: make([]int64, cfg.HRTEntries),
	}
	for i := range p.trainedAt {
		p.trainedAt[i] = -1
	}
	// Initialize counters at the threshold so an untrained ACIC behaves as
	// "always insert", i.e. degenerates to the plain i-Filter design until
	// comparisons have been observed.
	for i := range p.pt {
		p.pt[i] = p.threshold
	}
	return p
}

// Config returns the predictor configuration.
func (p *Predictor) Config() PredictorConfig { return p.cfg }

// hrtIndex hashes a partial tag into the HRT.
func (p *Predictor) hrtIndex(partialTag uint32) int {
	h := uint64(partialTag) * 0x9E3779B97F4A7C15
	return int(h % uint64(p.cfg.HRTEntries))
}

// Predict returns the admission decision for an i-Filter victim identified
// by its partial tag: true to insert into the i-cache, false to drop.
func (p *Predictor) Predict(partialTag uint32) bool {
	p.Predictions++
	h := p.hrt[p.hrtIndex(partialTag)]
	admit := p.pt[h] >= p.threshold
	if admit {
		p.Admits++
	}
	return admit
}

// Train records one resolved comparison outcome for the i-Filter victim
// identified by partialTag: outcome true means the victim was re-accessed
// sooner than its i-cache contender. With a positive UpdateLatency the PT
// counter update is queued and the HRT shift lands one cycle later;
// multiple trainings hitting the same HRT entry in the same cycle are
// dropped after the first (the paper's aliasing rule).
func (p *Predictor) Train(partialTag uint32, outcome bool) {
	idx := p.hrtIndex(partialTag)
	if p.trainedAt[idx] == p.now {
		p.AliasDrops++
		return
	}
	p.trainedAt[idx] = p.now
	p.TrainEvents++
	h := p.hrt[idx] // history value handed to the PT updater
	if p.cfg.UpdateLatency <= 0 {
		p.applyPT(h, outcome)
		p.hrt[idx] = ((h << 1) | b2u(outcome)) & p.histMask
		return
	}
	q := p.queues[h]
	if len(q) >= p.cfg.QueueSlots {
		p.QueueOverflow++
	} else {
		p.queues[h] = append(q, ptUpdate{due: p.now + p.cfg.UpdateLatency, increment: outcome})
		p.busy[h/64] |= 1 << (h % 64)
	}
	p.pendHRT = append(p.pendHRT, hrtShift{due: p.now + 1, idx: idx, outcome: outcome})
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func (p *Predictor) applyPT(h uint32, increment bool) {
	if increment {
		if p.pt[h] < p.ctrMax {
			p.pt[h]++
		}
	} else if p.pt[h] > 0 {
		p.pt[h]--
	}
}

// Tick advances the predictor to the given cycle, draining due HRT shifts
// and popping due PT-queue heads (one per elapsed cycle per queue, modeling
// the single update port per PT entry). Only non-empty queues are visited,
// in ascending history order, so a call costs O(pending queues) however
// wide the history is.
func (p *Predictor) Tick(cycle int64) {
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
	for wi, word := range p.busy {
		for word != 0 {
			h := wi*64 + bits.TrailingZeros64(word)
			word &= word - 1
			q := p.queues[h]
			pops := 0
			for pops < len(q) && q[pops].due <= cycle && int64(pops) < elapsed {
				p.applyPT(uint32(h), q[pops].increment)
				pops++
			}
			if pops > 0 {
				// Compact to the front instead of re-slicing the head away:
				// q[1:] bleeds capacity, so the next Train append
				// reallocates — a steady-state heap allocation the
				// zero-alloc guard forbids.
				p.queues[h] = q[:copy(q, q[pops:])]
				if pops == len(q) {
					p.busy[wi] &^= 1 << (h % 64)
				}
			}
		}
	}
}

// Counter exposes the PT counter for a history value (tests, introspection).
func (p *Predictor) Counter(history uint32) int64 { return p.pt[history&p.histMask] }

// History exposes the HRT entry a partial tag maps to.
func (p *Predictor) History(partialTag uint32) uint32 { return p.hrt[p.hrtIndex(partialTag)] }

// StorageBits returns HRT + PT + update-queue storage per Table I:
// HRT entries x history bits, PT entries x counter bits, and per PT entry a
// QueueSlots-deep queue of (history-bits index + 1 update bit) slots.
func (p *Predictor) StorageBits() int {
	hrt := p.cfg.HRTEntries * p.cfg.HistoryBits
	ptEntries := 1 << p.cfg.HistoryBits
	pt := ptEntries * p.cfg.CounterBits
	queues := ptEntries * p.cfg.QueueSlots * (p.cfg.HistoryBits + 1)
	return hrt + pt + queues
}
