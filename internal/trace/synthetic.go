package trace

import (
	"fmt"

	"firefly/internal/mbus"
	"firefly/internal/sim"
)

// SharedRegion is a pool of addresses referenced by every processor, the
// source of MShared traffic. One region is shared by all Synthetic
// generators of a machine.
type SharedRegion struct {
	Base  mbus.Addr
	Slots int
}

// NewSharedRegion returns a region of n longword slots at base.
func NewSharedRegion(base mbus.Addr, n int) *SharedRegion {
	if n <= 0 {
		panic("trace: shared region needs at least one slot")
	}
	return &SharedRegion{Base: base.Line(), Slots: n}
}

// Slot returns the address of slot i (mod the region size).
func (s *SharedRegion) Slot(i int) mbus.Addr {
	return s.Base + mbus.Addr((i%s.Slots)*4)
}

// SyntheticLoad names the machine-wide knobs of the synthetic workload:
// the paper's trace-characterization parameters, one field per quantity.
// It replaces the old positional triple (miss rate, share fraction,
// shared-read fraction) whose call sites were unreadable and
// order-fragile.
type SyntheticLoad struct {
	// MissRate is the target fraction of references forced to miss — the
	// paper's M (0.2 for the MicroVAX cache).
	MissRate float64
	// ShareFraction is the fraction of data writes directed at the shared
	// region — the paper's S (estimated at 0.1).
	ShareFraction float64
	// SharedReadFraction is the fraction of data reads directed at the
	// shared region, which keeps shared lines resident in every cache so
	// that writes to them actually observe MShared.
	SharedReadFraction float64
}

// Validate checks the load parameters.
func (l SyntheticLoad) Validate() error {
	switch {
	case l.MissRate < 0 || l.MissRate > 1:
		return fmt.Errorf("trace: miss rate %v out of [0,1]", l.MissRate)
	case l.ShareFraction < 0 || l.ShareFraction > 1:
		return fmt.Errorf("trace: share fraction %v out of [0,1]", l.ShareFraction)
	case l.SharedReadFraction < 0 || l.SharedReadFraction > 1:
		return fmt.Errorf("trace: shared read fraction %v out of [0,1]", l.SharedReadFraction)
	}
	return nil
}

// SyntheticConfig parameterizes a Synthetic generator.
type SyntheticConfig struct {
	// MissRate is the target fraction of references forced to miss (the
	// paper's M, 0.2 for the MicroVAX cache).
	MissRate float64
	// ShareFraction is the fraction of data writes directed at the shared
	// region (the paper's S, estimated at 0.1).
	ShareFraction float64
	// SharedReadFraction is the fraction of data reads directed at the
	// shared region, which keeps shared lines resident in every cache so
	// that writes to them actually observe MShared. The exerciser workload
	// uses a high value; the model-matching workload a small one.
	SharedReadFraction float64
	// PartialWriteFraction is the fraction of writes that are sub-longword
	// (cannot use the Firefly direct write-miss optimization).
	PartialWriteFraction float64
	// PrivateBase and PrivateBytes bound this processor's private address
	// region.
	PrivateBase  mbus.Addr
	PrivateBytes uint32
	// Seed makes the stream deterministic.
	Seed uint64
}

// Validate checks the configuration.
func (c SyntheticConfig) Validate() error {
	switch {
	case c.MissRate < 0 || c.MissRate > 1:
		return fmt.Errorf("trace: miss rate %v out of [0,1]", c.MissRate)
	case c.ShareFraction < 0 || c.ShareFraction > 1:
		return fmt.Errorf("trace: share fraction %v out of [0,1]", c.ShareFraction)
	case c.SharedReadFraction < 0 || c.SharedReadFraction > 1:
		return fmt.Errorf("trace: shared read fraction %v out of [0,1]", c.SharedReadFraction)
	case c.PartialWriteFraction < 0 || c.PartialWriteFraction > 1:
		return fmt.Errorf("trace: partial write fraction %v out of [0,1]", c.PartialWriteFraction)
	case c.PrivateBytes < 64:
		return fmt.Errorf("trace: private region too small (%d bytes)", c.PrivateBytes)
	}
	return nil
}

// Synthetic generates references with controlled miss rate and sharing,
// using the attached cache's residency to construct guaranteed hits and
// misses. It is the stand-in for the paper's trace-driven characterization
// (M=0.2, D=0.25, S=0.1).
type Synthetic struct {
	cfg    SyntheticConfig
	shared *SharedRegion
	cache  Residency
	rng    *sim.Rand
	cursor uint32 // next fresh private address offset
	seq    uint32 // write payload generator
}

// NewSynthetic returns a generator. cache may be nil.
func NewSynthetic(cfg SyntheticConfig, shared *SharedRegion, cache Residency) *Synthetic {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if shared == nil {
		panic("trace: Synthetic needs a shared region")
	}
	return &Synthetic{
		cfg:    cfg,
		shared: shared,
		cache:  cache,
		rng:    sim.NewRand(cfg.Seed),
	}
}

// Next implements Source.
func (g *Synthetic) Next(kind Kind) Ref {
	ref := Ref{Kind: kind}
	switch kind {
	case DataWrite:
		g.seq++
		ref.Data = g.seq
		ref.Partial = g.rng.Bool(g.cfg.PartialWriteFraction)
		if g.rng.Bool(g.cfg.ShareFraction) {
			ref.Addr = g.shared.Slot(g.rng.Intn(g.shared.Slots))
			return ref
		}
	case DataRead:
		if g.rng.Bool(g.cfg.SharedReadFraction) {
			ref.Addr = g.shared.Slot(g.rng.Intn(g.shared.Slots))
			return ref
		}
	}
	if g.rng.Bool(g.cfg.MissRate) {
		ref.Addr = g.freshMiss()
	} else {
		ref.Addr = g.residentHit()
	}
	return ref
}

// freshMiss picks a private address not currently cached.
func (g *Synthetic) freshMiss() mbus.Addr {
	span := g.cfg.PrivateBytes / 4
	for try := 0; try < 16; try++ {
		g.cursor = (g.cursor + 1 + uint32(g.rng.Intn(64))) % span
		a := g.cfg.PrivateBase + mbus.Addr(g.cursor*4)
		if g.cache == nil || !g.cache.Contains(a) {
			return a
		}
	}
	// The cache holds the whole region (tiny test caches); accept a hit.
	return g.cfg.PrivateBase + mbus.Addr(g.cursor*4)
}

// residentHit picks an address currently in the cache; before the cache
// warms up it falls back to fresh addresses (cold-start misses, which the
// paper also observes).
func (g *Synthetic) residentHit() mbus.Addr {
	if g.cache == nil {
		return g.freshMiss()
	}
	n := g.cache.Lines()
	for try := 0; try < 8; try++ {
		if a, ok := g.cache.ResidentLine(g.rng.Intn(n)); ok {
			return a
		}
	}
	return g.freshMiss()
}

var _ Source = (*Synthetic)(nil)

// WorkingSetConfig parameterizes the organic locality generator.
type WorkingSetConfig struct {
	// Base and Bytes bound the generator's address region.
	Base  mbus.Addr
	Bytes uint32
	// SetLines is the size of the active working set in lines.
	SetLines int
	// DriftProb is the per-reference probability of replacing one working
	// set member with a fresh address (temporal drift).
	DriftProb float64
	// JumpProb is the per-reference probability of relocating the whole
	// working set (phase change / context switch).
	JumpProb float64
	// PartialWriteFraction as in SyntheticConfig.
	PartialWriteFraction float64
	// Seed makes the stream deterministic.
	Seed uint64
}

// WorkingSet produces references with temporal locality: most references
// fall in a small active set, which drifts slowly and occasionally jumps
// (modeling context switches — the source of the cold-start misses the
// paper sees in the one-CPU measurement).
type WorkingSet struct {
	cfg  WorkingSetConfig
	rng  *sim.Rand
	set  []mbus.Addr
	next uint32
	seq  uint32
}

// NewWorkingSet returns a generator with a freshly populated working set.
func NewWorkingSet(cfg WorkingSetConfig) *WorkingSet {
	if cfg.SetLines <= 0 {
		panic("trace: working set needs at least one line")
	}
	if cfg.Bytes < uint32(cfg.SetLines*4) {
		panic("trace: region smaller than working set")
	}
	w := &WorkingSet{cfg: cfg, rng: sim.NewRand(cfg.Seed)}
	w.set = make([]mbus.Addr, cfg.SetLines)
	w.repopulate()
	return w
}

func (w *WorkingSet) fresh() mbus.Addr {
	span := w.cfg.Bytes / 4
	w.next = (w.next + 1 + uint32(w.rng.Intn(1024))) % span
	return w.cfg.Base + mbus.Addr(w.next*4)
}

func (w *WorkingSet) repopulate() {
	for i := range w.set {
		w.set[i] = w.fresh()
	}
}

// Next implements Source.
func (w *WorkingSet) Next(kind Kind) Ref {
	if w.rng.Bool(w.cfg.JumpProb) {
		w.repopulate()
	} else if w.rng.Bool(w.cfg.DriftProb) {
		w.set[w.rng.Intn(len(w.set))] = w.fresh()
	}
	ref := Ref{Kind: kind, Addr: w.set[w.rng.Intn(len(w.set))]}
	if kind == DataWrite {
		w.seq++
		ref.Data = w.seq
		ref.Partial = w.rng.Bool(w.cfg.PartialWriteFraction)
	}
	return ref
}

var _ Source = (*WorkingSet)(nil)

// Fixed is a Source that always returns the same address; useful for
// deterministic unit tests and hot-lock modeling.
type Fixed struct {
	Addr mbus.Addr
	seq  uint32
}

// Next implements Source.
func (f *Fixed) Next(kind Kind) Ref {
	ref := Ref{Kind: kind, Addr: f.Addr}
	if kind == DataWrite {
		f.seq++
		ref.Data = f.seq
	}
	return ref
}

var _ Source = (*Fixed)(nil)
