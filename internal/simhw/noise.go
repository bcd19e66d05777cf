package simhw

import (
	"math/rand"
	"reflect"

	"pandia/internal/topology"
)

// The measurement noise of a run is one standard-normal variate drawn from
// rand.New(rand.NewSource(h)), h the FNV-1a hash of the run's noise key.
// Seeding math/rand's source fills all 607 words of its feedback register
// (1,841 steps of its seeding LCG), yet one NormFloat64 reads only a few of
// them. NoiseSource produces the identical stream with an O(1) Seed: it
// keeps the reduced seed and computes a register word from it on its first
// read, jumping the LCG ahead with a table of multiplier powers.

const (
	rngLen  = 607       // words in the feedback register
	rngTap  = 273       // distance of the tap behind the feed
	rngMask = 1<<63 - 1 // Int63's mask

	// The seeding LCG is x ← lcgMul·x mod lcgMod. Seed runs it lcgWarm
	// steps, then three steps per register word, lcgLast in all; a seed
	// ≡ 0 mod lcgMod seeds as lcgZero.
	lcgMod  = 1<<31 - 1
	lcgMul  = 48271
	lcgWarm = 20
	lcgLast = lcgWarm + 3*rngLen
	lcgZero = 89482311
)

var (
	// lcgPow[n] is lcgMul^n mod lcgMod: the LCG's n-th state from seed x
	// is x·lcgPow[n] mod lcgMod.
	lcgPow [lcgLast + 1]uint64
	// rngCooked is math/rand's fixed seeding table: word i of a register
	// seeded with x is lcgWord(x, i) ^ rngCooked[i].
	rngCooked [rngLen]int64
)

// init fills lcgPow and recovers rngCooked, which math/rand does not
// export, from a real source seeded with 1: its register words XOR the
// LCG part out. The register is read by reflection, read-only; if math/rand
// ever renames or reshapes it, the package fails to initialise rather than
// drawing a different noise stream.
func init() {
	lcgPow[0] = 1
	for n := 1; n < len(lcgPow); n++ {
		lcgPow[n] = lcgPow[n-1] * lcgMul % lcgMod
	}
	var vec reflect.Value
	if src := reflect.Indirect(reflect.ValueOf(rand.NewSource(1))); src.Kind() == reflect.Struct {
		vec = src.FieldByName("vec")
	}
	if vec.Kind() != reflect.Array || vec.Len() != rngLen || vec.Type().Elem().Kind() != reflect.Int64 {
		panic("simhw: math/rand's source has no [607]int64 vec register; cannot recover its seeding table")
	}
	for i := range rngCooked {
		rngCooked[i] = vec.Index(i).Int() ^ lcgWord(1, i)
	}
}

// lcgWord is the LCG part of register word i for the reduced seed x: the
// LCG's states 21+3i, 22+3i and 23+3i, packed as math/rand packs them.
func lcgWord(x uint64, i int) int64 {
	n := lcgWarm + 1 + 3*i
	a := int64(x * lcgPow[n] % lcgMod)
	b := int64(x * lcgPow[n+1] % lcgMod)
	c := int64(x * lcgPow[n+2] % lcgMod)
	return a<<40 ^ b<<20 ^ c
}

// NoiseSource is a rand.Source64 whose stream equals that of
// rand.NewSource(seed) for every seed, draw for draw, but whose Seed is
// O(1). The zero value must be seeded before use.
type NoiseSource struct {
	tap, feed int
	// drawn counts the Uint64 calls since Seed, saturating at rngLen+1.
	// Draw k reads its tap word as seeded while k ≤ rngTap (draw k−rngTap
	// wrote it otherwise) and its feed word as seeded while k ≤ rngLen
	// (draw k−rngLen wrote it otherwise), so vec holds only words written
	// since Seed and never needs clearing.
	drawn int
	x     uint64 // the seed, reduced to [1, lcgMod)
	vec   [rngLen]int64
}

// NewNoiseSource returns a source seeded with seed.
func NewNoiseSource(seed int64) *NoiseSource {
	s := new(NoiseSource)
	s.Seed(seed)
	return s
}

// Seed resets the source to the stream of rand.NewSource(seed).
//
//pandia:noalloc
func (s *NoiseSource) Seed(seed int64) {
	s.tap, s.feed, s.drawn = 0, rngLen-rngTap, 0
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = lcgZero
	}
	s.x = uint64(seed)
}

// Uint64 returns the next 64 bits of the stream: the lagged-Fibonacci step
// of math/rand's source, with a word not yet written since Seed computed
// from the seed.
//
//pandia:noalloc
func (s *NoiseSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.drawn <= rngLen {
		s.drawn++
	}
	t := s.vec[s.tap]
	if s.drawn <= rngTap {
		t = lcgWord(s.x, s.tap) ^ rngCooked[s.tap]
	}
	f := s.vec[s.feed]
	if s.drawn <= rngLen {
		f = lcgWord(s.x, s.feed) ^ rngCooked[s.feed]
	}
	x := f + t
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next non-negative 63-bit integer of the stream.
//
//pandia:noalloc
func (s *NoiseSource) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// fnvKey is a 64-bit FNV-1a hash fed field by field, so a run's key is
// hashed without building its bytes.
type fnvKey uint64

const (
	fnvOffset fnvKey = 14695981039346656037
	fnvPrime  fnvKey = 1099511628211
)

func (h fnvKey) addByte(b byte) fnvKey { return (h ^ fnvKey(b)) * fnvPrime }

func (h fnvKey) addString(s string) fnvKey {
	for i := 0; i < len(s); i++ {
		h = h.addByte(s[i])
	}
	return h
}

// addInt feeds n in decimal, as strconv.FormatInt(n, 10) spells it.
func (h fnvKey) addInt(n int64) fnvKey {
	u := uint64(n)
	if n < 0 {
		h = h.addByte('-')
		u = -u
	}
	var d [20]byte
	i := len(d)
	for {
		i--
		d[i] = byte('0' + u%10)
		u /= 10
		if u == 0 {
			break
		}
	}
	for ; i < len(d); i++ {
		h = h.addByte(d[i])
	}
	return h
}

// addContext feeds "socket.core.slot".
func (h fnvKey) addContext(c topology.Context) fnvKey {
	h = h.addInt(int64(c.Socket)).addByte('.')
	h = h.addInt(int64(c.Core)).addByte('.')
	return h.addInt(int64(c.Slot))
}

// RunKey is the FNV-1a hash of a run's key: "prefix|workload|power|seed|",
// then "socket.core.slot," per placed thread, "Ssocket.core.slot:name," per
// stressor and "Msocket," per memory-bound socket. Seeded with the machine
// name as prefix it derives the run's measurement noise, so identical runs
// measure identical times and a new run seed re-rolls.
//
//pandia:noalloc
func RunKey(prefix string, cfg *RunConfig) uint64 {
	h := fnvOffset.addString(prefix).addByte('|')
	h = h.addString(cfg.Workload.Name).addByte('|')
	h = h.addInt(int64(cfg.Power)).addByte('|')
	h = h.addInt(cfg.Seed).addByte('|')
	for _, c := range cfg.Placement {
		h = h.addContext(c).addByte(',')
	}
	for _, st := range cfg.Stressors {
		h = h.addByte('S').addContext(st.Ctx).addByte(':')
		h = h.addString(st.Truth.Name).addByte(',')
	}
	for _, m := range cfg.Memory.BindSockets {
		h = h.addByte('M').addInt(int64(m)).addByte(',')
	}
	return uint64(h)
}
