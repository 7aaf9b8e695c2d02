package sim

// Rand is a small, fast, deterministic pseudo-random source
// (xorshift64*). The simulator cannot use math/rand's global functions:
// reproducibility across runs and across Go releases is part of the
// experiment harness contract, so we pin the generator algorithm here.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. A zero seed is remapped
// to a fixed non-zero constant because xorshift has a zero fixed point.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Uint64AsWord narrows a draw to a 32-bit word (payload values).
func (r *Rand) Uint64AsWord() uint32 { return uint32(r.Uint64()) }

// Split derives an independent generator from r, so components can own
// private streams that do not perturb each other when one component
// changes how many numbers it draws.
func (r *Rand) Split() *Rand {
	return NewRand(r.Uint64() | 1)
}
