package ids

import (
	"testing"
	"testing/quick"
)

func TestHashDeterministic(t *testing.T) {
	a := HashString("doc:home")
	b := HashString("doc:home")
	if a != b {
		t.Fatalf("Hash not deterministic: %v vs %v", a, b)
	}
	if HashString("doc:home") == HashString("doc:away") {
		t.Fatalf("distinct keys collided (astronomically unlikely)")
	}
}

func TestHashTSIndependentOfDataHash(t *testing.T) {
	key := "Main.WebHome"
	if HashTS(key) == HashString(key) {
		t.Fatalf("ht(key) must differ from data hash for key %q", key)
	}
}

func TestReplicaHashFamilyIndependence(t *testing.T) {
	key, ts := "Main.WebHome", uint64(7)
	seen := map[ID]int{}
	for i := 0; i < 8; i++ {
		id := LogSlot(key, ts).Pos(i)
		if j, dup := seen[id]; dup {
			t.Fatalf("h%d and h%d collided on (%q,%d)", i, j, key, ts)
		}
		seen[id] = i
	}
	// Same function index must be deterministic.
	if LogSlot(key, ts).Pos(2) != LogSlot(key, ts).Pos(2) {
		t.Fatalf("Pos not deterministic")
	}
	// Different timestamps must map elsewhere.
	if LogSlot(key, 1).Pos(0) == LogSlot(key, 2).Pos(0) {
		t.Fatalf("Pos ignored ts")
	}
}

// TestSlotGolden pins every kind's ring positions and names, computed
// from the per-kind hash functions this type replaced. A slot that moves
// strands every record already stored in the DHT, so a failure here is
// never fixed by updating the table.
func TestSlotGolden(t *testing.T) {
	cases := []struct {
		slot  Slot
		pos   [Replicas]ID
		names [Replicas]string
	}{
		{LogSlot("Main.WebHome", 7),
			[Replicas]ID{0x13c07426ecba1baf, 0x9c8b9fdb21976762, 0x6b84d5636a467002},
			[Replicas]string{"log/Main.WebHome/7/r0", "log/Main.WebHome/7/r1", "log/Main.WebHome/7/r2"}},
		{CheckpointSlot("Main.WebHome", 64),
			[Replicas]ID{0x05c4fa20e21461a8, 0xd7b514ee5b3ce07b, 0x102631b0dbbb3949},
			[Replicas]string{"ckpt/Main.WebHome/64/r0", "ckpt/Main.WebHome/64/r1", "ckpt/Main.WebHome/64/r2"}},
		{PointerSlot("Main.WebHome"),
			[Replicas]ID{0xd99142254b45f0b3, 0x57393f8700d7cb2f, 0x12b6604c72817e9c},
			[Replicas]string{"ckptptr/Main.WebHome/r0", "ckptptr/Main.WebHome/r1", "ckptptr/Main.WebHome/r2"}},
		{LogSlot("space/page", 7),
			[Replicas]ID{0x8a993022bb98f8eb, 0x57ad60e5eb9357a2, 0xfbee043d7113306b},
			[Replicas]string{"log/space/page/7/r0", "log/space/page/7/r1", "log/space/page/7/r2"}},
		{CheckpointSlot("space/page", 64),
			[Replicas]ID{0x71c930f6dff39a66, 0x3c0d57d38fdddc5c, 0x263de28bbb3eb95d},
			[Replicas]string{"ckpt/space/page/64/r0", "ckpt/space/page/64/r1", "ckpt/space/page/64/r2"}},
		{PointerSlot("space/page"),
			[Replicas]ID{0xe26911846803f756, 0x91a0271bbf63da9c, 0x4882f91b447e8477},
			[Replicas]string{"ckptptr/space/page/r0", "ckptptr/space/page/r1", "ckptptr/space/page/r2"}},
	}
	for _, c := range cases {
		for i := 0; i < Replicas; i++ {
			if got := c.slot.Pos(i); got != c.pos[i] {
				t.Errorf("%v.Pos(%d) = %v, want %v", c.slot, i, got, c.pos[i])
			}
			name := c.slot.Name(i)
			if name != c.names[i] {
				t.Errorf("%v.Name(%d) = %q, want %q", c.slot, i, name, c.names[i])
			}
			if s, r, ok := ParseSlot(name); !ok || s != c.slot || r != i {
				t.Errorf("ParseSlot(%q) = %+v, %d, %v", name, s, r, ok)
			}
		}
	}
}

func TestParseSlotRejects(t *testing.T) {
	for _, name := range []string{
		"", "log", "log/", "log/doc/r0", "log/doc/7/x0", "log/doc/7/r", "log/doc/7/r-1",
		"log/doc/-7/r0", "ckpt/doc/r0", "ckptptr/r0", "ckptptr/doc/0", "wal/doc/7/r0",
		"probe-kv-1",
	} {
		if s, r, ok := ParseSlot(name); ok {
			t.Errorf("ParseSlot(%q) = %+v, %d, accepted", name, s, r)
		}
	}
}

// FuzzParseSlot: names arrive from other peers (DHT puts, state
// transfers), so ParseSlot must never panic, and every slot's names must
// parse back to it.
func FuzzParseSlot(f *testing.F) {
	f.Add("log/Main.WebHome/7/r0", uint8(0), "space/page", uint64(7), uint16(2))
	f.Add("ckpt/a/b/64/r1", uint8(1), "a/b/64", uint64(64), uint16(1))
	f.Add("ckptptr/doc/r2", uint8(2), "", uint64(0), uint16(0))
	f.Add("log//0/r", uint8(3), "/r0/", uint64(1<<63), uint16(65535))
	f.Fuzz(func(t *testing.T, name string, kind uint8, key string, ts uint64, replica uint16) {
		if s, r, ok := ParseSlot(name); ok && (r < 0 || s.Kind > KindPointer) {
			t.Fatalf("ParseSlot(%q) = %+v, %d", name, s, r)
		}
		s := Slot{Kind: Kind(kind % 3), Key: key, TS: ts}
		if s.Kind == KindPointer {
			s.TS = 0
		}
		got, r, ok := ParseSlot(s.Name(int(replica)))
		if !ok || got != s || r != int(replica) {
			t.Fatalf("ParseSlot(%q) = %+v, %d, %v; want %+v, %d", s.Name(int(replica)), got, r, ok, s, replica)
		}
	})
}

func TestBetweenSimpleArc(t *testing.T) {
	cases := []struct {
		x, a, b ID
		want    bool
	}{
		{5, 1, 10, true},
		{1, 1, 10, false},  // exclusive left
		{10, 1, 10, false}, // exclusive right
		{0, 1, 10, false},
		{11, 1, 10, false},
	}
	for _, c := range cases {
		if got := Between(c.x, c.a, c.b); got != c.want {
			t.Errorf("Between(%d,%d,%d) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
}

func TestBetweenWrappedArc(t *testing.T) {
	const max = ID(^uint64(0))
	cases := []struct {
		x, a, b ID
		want    bool
	}{
		{max, max - 10, 10, true},
		{5, max - 10, 10, true},
		{max - 10, max - 10, 10, false},
		{10, max - 10, 10, false},
		{100, max - 10, 10, false},
	}
	for _, c := range cases {
		if got := Between(c.x, c.a, c.b); got != c.want {
			t.Errorf("Between(%v,%v,%v) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
}

func TestBetweenFullCircleWhenEqual(t *testing.T) {
	// a == b denotes the whole circle except a itself: a single-node ring
	// owns every key.
	if !Between(42, 7, 7) {
		t.Fatalf("Between(42,7,7) should be true (full circle)")
	}
	if Between(7, 7, 7) {
		t.Fatalf("Between(7,7,7) should be false (endpoint excluded)")
	}
}

func TestBetweenRightIncl(t *testing.T) {
	if !BetweenRightIncl(10, 1, 10) {
		t.Fatalf("right endpoint must be included")
	}
	if BetweenRightIncl(1, 1, 10) {
		t.Fatalf("left endpoint must be excluded")
	}
	if !BetweenRightIncl(7, 7, 7) {
		t.Fatalf("single-node ring owns its own ID")
	}
}

func TestPowerOfTwoOffset(t *testing.T) {
	if got := PowerOfTwoOffset(0, 0); got != 1 {
		t.Fatalf("offset 2^0 from 0 = %v, want 1", got)
	}
	if got := PowerOfTwoOffset(0, 63); got != ID(1)<<63 {
		t.Fatalf("offset 2^63 from 0 = %v", got)
	}
	// Wraparound.
	if got := PowerOfTwoOffset(ID(^uint64(0)), 0); got != 0 {
		t.Fatalf("max+1 should wrap to 0, got %v", got)
	}
}

func TestPowerOfTwoOffsetPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for index 64")
		}
	}()
	PowerOfTwoOffset(0, Bits)
}

func TestParseRoundTrip(t *testing.T) {
	for _, id := range []ID{0, 1, 42, ID(^uint64(0)), HashString("x")} {
		got, err := Parse(id.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", id.String(), err)
		}
		if got != id {
			t.Fatalf("round trip %v -> %v", id, got)
		}
	}
	if _, err := Parse("zzz"); err == nil {
		t.Fatalf("Parse should reject non-hex input")
	}
}

// Property: exactly one of x∈(a,b), x∈(b,a), x==a, x==b holds for any
// triple — the circle is partitioned.
func TestBetweenPartitionProperty(t *testing.T) {
	f := func(x, a, b uint64) bool {
		X, A, B := ID(x), ID(a), ID(b)
		if A == B {
			return true // degenerate arcs tested separately
		}
		n := 0
		if Between(X, A, B) {
			n++
		}
		if Between(X, B, A) {
			n++
		}
		if X == A {
			n++
		}
		if X == B {
			n++
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: BetweenRightIncl(k, pred, self) partitions key ownership — for
// any two distinct node IDs, a key belongs to exactly one of the two arcs.
func TestOwnershipPartitionProperty(t *testing.T) {
	f := func(k, n1, n2 uint64) bool {
		K, N1, N2 := ID(k), ID(n1), ID(n2)
		if N1 == N2 {
			return true
		}
		in1 := BetweenRightIncl(K, N2, N1)
		in2 := BetweenRightIncl(K, N1, N2)
		return in1 != in2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHash(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = HashString("Main.WebHome")
	}
}

func BenchmarkSlotPos(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = LogSlot("Main.WebHome", uint64(i)).Pos(i % Replicas)
	}
}
