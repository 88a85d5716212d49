// Package ids implements the identifier space of the P2P-LTR ring.
//
// Peers and keys are mapped onto a 64-bit circular identifier space using
// SHA-1 (the paper references FIPS 180-1 for consistent hashing); an ID is
// the big-endian value of the first 8 bytes of the digest. All ring
// arithmetic is modulo 2^64.
//
// The package also provides the two hash-function families the paper
// requires:
//
//   - ht, the timestamp hash function used to locate the Master-key peer of
//     a document key (HashTS);
//   - Hr = {h1..hn}, the pairwise-independent replication hash functions
//     used to place timestamped patches at Log-Peers (Slot.Pos), which
//     checkpoints and checkpoint pointers reuse under their own
//     namespaces.
//
// Pairwise independence is obtained by namespacing the SHA-1 input with the
// function index, which is how replicated DHT schemes such as the one in
// "Data Currency in Replicated DHTs" (Akbarinia et al., SIGMOD 2007)
// instantiate their hash families in practice.
package ids

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Bits is the width of the identifier space. Chord finger tables have one
// entry per bit.
const Bits = 64

// ID is a point on the identifier circle [0, 2^64).
type ID uint64

// Hash maps an arbitrary byte string to an ID.
func Hash(b []byte) ID {
	sum := sha1.Sum(b)
	return ID(binary.BigEndian.Uint64(sum[:8]))
}

// HashString maps a string key to an ID.
func HashString(s string) ID { return Hash([]byte(s)) }

// HashTS is ht from the paper: it locates the Master-key peer responsible
// for timestamping a document key. It is deliberately distinct from the
// plain data hash so that timestamp responsibility and data placement are
// independent.
func HashTS(key string) ID { return Hash([]byte("p2pltr/ts\x00" + key)) }

// Replicas is n = |Hr| = |Hc|: every log record, checkpoint and
// checkpoint pointer is written at this many ring positions.
const Replicas = 3

// Kind names the record family a Slot belongs to. Its name is both the
// hash namespace and the first component of the slot name, so the three
// families never collide.
type Kind uint8

const (
	// KindLog is a P2P-Log record, placed by Hr at hi(key+ts).
	KindLog Kind = iota
	// KindCheckpoint is a write-once document snapshot, placed by Hc.
	KindCheckpoint
	// KindPointer is the mutable latest-checkpoint record of a key. It
	// hashes no timestamp: the KTS master overwrites it in ts order.
	KindPointer
)

var kindNames = [...]string{KindLog: "log", KindCheckpoint: "ckpt", KindPointer: "ckptptr"}

// Slot is one replicated record: the n replicas of (Kind, Key, TS) live
// at Pos(0) … Pos(Replicas-1) under the names Name(0) … Name(Replicas-1).
// TS is ignored for KindPointer. This is the one place slots are named and
// placed; moving a position strands every record already in the DHT.
type Slot struct {
	Kind Kind
	Key  string
	TS   uint64
}

// LogSlot is the P2P-Log record of key at ts.
func LogSlot(key string, ts uint64) Slot { return Slot{KindLog, key, ts} }

// CheckpointSlot is the snapshot of key taken at ts.
func CheckpointSlot(key string, ts uint64) Slot { return Slot{KindCheckpoint, key, ts} }

// PointerSlot is the latest-checkpoint pointer of key.
func PointerSlot(key string) Slot { return Slot{Kind: KindPointer, Key: key} }

// Pos is the ring position of replica i: SHA-1 over
// "p2pltr/<kind>\x00<i>\x00<key>[\x00<ts as 8 big-endian bytes>]".
// Namespacing the input with the index makes the family pairwise
// independent in practice; for KindLog it is the paper's hi(key+ts).
func (s Slot) Pos(i int) ID {
	b := make([]byte, 0, 40+len(s.Key))
	b = append(append(b, "p2pltr/"...), kindNames[s.Kind]...)
	b = append(strconv.AppendInt(append(b, 0), int64(i), 10), 0)
	b = append(b, s.Key...)
	if s.Kind != KindPointer {
		b = binary.BigEndian.AppendUint64(append(b, 0), s.TS)
	}
	return Hash(b)
}

// String is the slot's name without a replica index:
// "<kind>/<key>[/<ts>]".
func (s Slot) String() string {
	if s.Kind == KindPointer {
		return kindNames[s.Kind] + "/" + s.Key
	}
	return kindNames[s.Kind] + "/" + s.Key + "/" + strconv.FormatUint(s.TS, 10)
}

// Name is the debug name stored alongside replica i:
// "<kind>/<key>[/<ts>]/r<i>". Storage peers parse it back (ParseSlot) to
// apply the truncation low-water mark and to discover document keys.
func (s Slot) Name(i int) string { return s.String() + "/r" + strconv.Itoa(i) }

// ParseSlot decodes a Name back into its slot and replica index,
// reporting ok=false for names of any other shape. Keys may themselves
// contain '/', so the timestamp and replica components are taken from the
// right. Names arrive from other peers, so nothing here may panic.
func ParseSlot(name string) (s Slot, replica int, ok bool) {
	prefix, rest, found := strings.Cut(name, "/")
	kind := slices.Index(kindNames[:], prefix)
	if !found || kind < 0 {
		return Slot{}, 0, false
	}
	s.Kind = Kind(kind)
	i := strings.LastIndexByte(rest, '/')
	if i < 0 || !strings.HasPrefix(rest[i+1:], "r") {
		return Slot{}, 0, false
	}
	r, err := strconv.ParseUint(rest[i+2:], 10, 31)
	if err != nil {
		return Slot{}, 0, false
	}
	rest = rest[:i]
	if s.Kind != KindPointer {
		if i = strings.LastIndexByte(rest, '/'); i < 0 {
			return Slot{}, 0, false
		}
		if s.TS, err = strconv.ParseUint(rest[i+1:], 10, 64); err != nil {
			return Slot{}, 0, false
		}
		rest = rest[:i]
	}
	s.Key = rest
	return s, int(r), true
}

// ParseLogSlotName is ParseSlot restricted to log slots.
func ParseLogSlotName(name string) (key string, ts uint64, ok bool) {
	s, _, ok := ParseSlot(name)
	if !ok || s.Kind != KindLog {
		return "", 0, false
	}
	return s.Key, s.TS, true
}

// String renders the ID as fixed-width hexadecimal.
func (x ID) String() string { return fmt.Sprintf("%016x", uint64(x)) }

// Between reports whether x lies on the arc (a, b) exclusive, walking
// clockwise from a. If a == b the arc covers the whole circle except a.
func Between(x, a, b ID) bool {
	if a < b {
		return a < x && x < b
	}
	// Arc wraps through zero (or a == b, the full circle minus a).
	return x > a || x < b
}

// BetweenRightIncl reports whether x lies on the arc (a, b] clockwise from
// a. This is Chord's successor-responsibility test: key k is owned by node
// n iff k ∈ (predecessor(n), n].
func BetweenRightIncl(x, a, b ID) bool {
	if x == b {
		return true
	}
	return Between(x, a, b)
}

// Arc is the ring arc (From, To]: the positions a Chord peer To owns
// while its predecessor is From. An arc with From == To is empty — the
// zero Arc names no positions — unlike BetweenRightIncl, which reads
// a == b as the whole circle.
type Arc struct{ From, To ID }

// Empty reports whether the arc names no positions.
func (a Arc) Empty() bool { return a.From == a.To }

// Contains reports whether x lies on the arc.
func (a Arc) Contains(x ID) bool { return !a.Empty() && BetweenRightIncl(x, a.From, a.To) }

// Add returns the ID at clockwise offset d from x.
func Add(x ID, d uint64) ID { return ID(uint64(x) + d) }

// PowerOfTwoOffset returns x + 2^i (mod 2^64), the start of the i-th Chord
// finger interval. i must be in [0, Bits).
func PowerOfTwoOffset(x ID, i int) ID {
	if i < 0 || i >= Bits {
		panic("ids: finger index out of range: " + strconv.Itoa(i))
	}
	return ID(uint64(x) + uint64(1)<<uint(i))
}

// Parse converts the output of String back into an ID.
func Parse(s string) (ID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("ids: parse %q: %w", s, err)
	}
	return ID(v), nil
}
