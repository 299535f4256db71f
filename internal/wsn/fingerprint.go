package wsn

import "math"

// Fingerprint seeds: distinct stream labels keep the sensor multiset,
// the depot multiset and the header from cancelling each other out.
const (
	fpSensorSeed = 0x53454e534f523164 // "SENSOR1d"
	fpDepotSeed  = 0x4445504f54313233 // "DEPOT123"
	fpHeaderSeed = 0x4e45545741524b31 // "NETWARK1"
)

// Fingerprint returns a canonical 64-bit hash of the deployment: the
// field, the base station, the multiset of sensors (position, capacity,
// maximum charging cycle — IDs are positional labels and excluded) and
// the multiset of depots. The hash is order-independent: permuting the
// sensor or depot slices does not change it. It is also a pure function
// of the float bit patterns, so identical deployments fingerprint
// identically across runs, processes and machines.
//
// Fingerprint is an identity *hint* for plan caches and memo layers:
// two equal networks always collide, two different networks collide
// with probability ~2^-64. Callers that cannot tolerate a false hit
// confirm with Network.Equal after the hash matches.
func Fingerprint(nw *Network) uint64 {
	var sensorSum, sensorXor uint64
	for _, s := range nw.Sensors {
		h := fpRecord(fpSensorSeed, s.Pos.X, s.Pos.Y, s.Capacity, s.Cycle)
		sensorSum += h
		sensorXor ^= h
	}
	var depotSum, depotXor uint64
	for _, d := range nw.Depots {
		h := fpRecord(fpDepotSeed, d.X, d.Y)
		depotSum += h
		depotXor ^= h
	}
	h := fpRecord(fpHeaderSeed,
		nw.Field.Min.X, nw.Field.Min.Y, nw.Field.Max.X, nw.Field.Max.Y,
		nw.Base.X, nw.Base.Y)
	h = fpMix(h ^ uint64(nw.N()))
	h = fpMix(h ^ sensorSum)
	h = fpMix(h ^ sensorXor)
	h = fpMix(h ^ uint64(nw.Q()))
	h = fpMix(h ^ depotSum)
	h = fpMix(h ^ depotXor)
	return h
}

// Equal reports whether two networks describe bit-identical deployments
// in identical order: same field, base station, sensor sequence
// (ID, position, capacity, cycle) and depot sequence. Unlike
// Fingerprint it is order-sensitive, because sensor and depot indices
// label tour stops and tour roots; a cached plan is only valid for a
// request whose indices mean the same thing. It is the exact
// confirmation the serving plan cache performs after a Fingerprint
// match, so a hash collision can never serve a wrong plan.
//
//lint:allow floateq identity comparison must be bit-exact (cache equality guard)
func (nw *Network) Equal(o *Network) bool {
	if nw == o {
		return true
	}
	if nw == nil || o == nil {
		return false
	}
	if nw.Field != o.Field || nw.Base != o.Base {
		return false
	}
	if len(nw.Sensors) != len(o.Sensors) || len(nw.Depots) != len(o.Depots) {
		return false
	}
	for i, s := range nw.Sensors {
		t := o.Sensors[i]
		if s.ID != t.ID || s.Pos != t.Pos || s.Capacity != t.Capacity || s.Cycle != t.Cycle {
			return false
		}
	}
	for l, d := range nw.Depots {
		if d != o.Depots[l] {
			return false
		}
	}
	return true
}

// FingerprintAccum is the incremental form of Fingerprint: it carries
// the order-independent multiset accumulators (per-record hash sum and
// xor) separately from the final fold, so one sensor can be applied or
// removed in O(1) instead of rehashing the whole deployment. The
// streaming session layer keeps one per tenant and re-derives the
// session fingerprint after every delta batch.
//
// Hash() is pinned to Fingerprint: for any sequence of adds, removes
// and updates, the accumulator's hash equals Fingerprint of a Network
// holding the same field, base station, depot list and live sensor
// multiset (TestFingerprintAccumMatchesFromScratch). Removing a sensor
// record that was never added corrupts the accumulator silently —
// callers own that bookkeeping.
type FingerprintAccum struct {
	headerHash           uint64
	n                    int
	sensorSum, sensorXor uint64
	q                    int
	depotSum, depotXor   uint64
}

// NewFingerprintAccum seeds an accumulator from a network; the initial
// Hash() equals Fingerprint(nw).
func NewFingerprintAccum(nw *Network) *FingerprintAccum {
	a := &FingerprintAccum{
		headerHash: fpRecord(fpHeaderSeed,
			nw.Field.Min.X, nw.Field.Min.Y, nw.Field.Max.X, nw.Field.Max.Y,
			nw.Base.X, nw.Base.Y),
		q: nw.Q(),
	}
	for _, s := range nw.Sensors {
		a.AddSensor(s)
	}
	for _, d := range nw.Depots {
		h := fpRecord(fpDepotSeed, d.X, d.Y)
		a.depotSum += h
		a.depotXor ^= h
	}
	return a
}

// AddSensor applies one sensor to the multiset.
func (a *FingerprintAccum) AddSensor(s Sensor) {
	h := fpRecord(fpSensorSeed, s.Pos.X, s.Pos.Y, s.Capacity, s.Cycle)
	a.sensorSum += h
	a.sensorXor ^= h
	a.n++
}

// RemoveSensor removes one sensor previously added (sum is inverted by
// subtraction, xor by itself).
func (a *FingerprintAccum) RemoveSensor(s Sensor) {
	h := fpRecord(fpSensorSeed, s.Pos.X, s.Pos.Y, s.Capacity, s.Cycle)
	a.sensorSum -= h
	a.sensorXor ^= h
	a.n--
}

// UpdateSensor replaces old with new in the multiset.
func (a *FingerprintAccum) UpdateSensor(old, new Sensor) {
	a.RemoveSensor(old)
	a.AddSensor(new)
}

// Hash folds the accumulators exactly as Fingerprint does.
func (a *FingerprintAccum) Hash() uint64 {
	h := fpMix(a.headerHash ^ uint64(a.n))
	h = fpMix(h ^ a.sensorSum)
	h = fpMix(h ^ a.sensorXor)
	h = fpMix(h ^ uint64(a.q))
	h = fpMix(h ^ a.depotSum)
	h = fpMix(h ^ a.depotXor)
	return h
}

// fpRecord hashes one record's float fields under a stream seed.
func fpRecord(seed uint64, vals ...float64) uint64 {
	h := fpMix(seed)
	for _, v := range vals {
		h = fpMix(h ^ fpMix(math.Float64bits(v)))
	}
	return h
}

// fpMix is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// mixing function (Steele et al., "Fast Splittable Pseudorandom Number
// Generators", OOPSLA 2014).
func fpMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
