package perm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIdentity(t *testing.T) {
	for n := 0; n <= 8; n++ {
		p := Identity(n)
		if p.N() != n {
			t.Fatalf("Identity(%d).N() = %d", n, p.N())
		}
		if !p.IsIdentity() {
			t.Fatalf("Identity(%d) not identity: %v", n, p)
		}
		if p.Rank() != 0 {
			t.Fatalf("Identity(%d).Rank() = %d, want 0", n, p.Rank())
		}
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		in []int
		ok bool
	}{
		{[]int{}, true},
		{[]int{1}, true},
		{[]int{2, 1, 3}, true},
		{[]int{1, 1}, false},
		{[]int{0, 1}, false},
		{[]int{3, 1}, false},
		{[]int{1, 2, 4}, false},
	}
	for _, c := range cases {
		_, err := New(c.in)
		if (err == nil) != c.ok {
			t.Errorf("New(%v): err=%v, want ok=%v", c.in, err, c.ok)
		}
	}
}

func TestSwapFirst(t *testing.T) {
	p := MustNew([]int{1, 2, 3, 4})
	q := p.SwapFirst(3)
	if got, want := q.String(), "3214"; got != want {
		t.Fatalf("SwapFirst(3) = %s, want %s", got, want)
	}
	if p.String() != "1234" {
		t.Fatalf("SwapFirst mutated receiver: %s", p)
	}
	// involution: applying the same generator twice restores p
	if !q.SwapFirst(3).Equal(p) {
		t.Fatal("SwapFirst(3) twice is not identity")
	}
}

func TestSwapFirstPanics(t *testing.T) {
	p := Identity(4)
	for _, i := range []int{0, 1, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SwapFirst(%d) did not panic", i)
				}
			}()
			p.SwapFirst(i)
		}()
	}
}

func TestRankUnrankRoundTripExhaustive(t *testing.T) {
	for n := 0; n <= 7; n++ {
		want := uint64(0)
		ForEach(n, func(p Permutation) bool {
			r := p.Rank()
			if r != want {
				t.Fatalf("n=%d perm %v rank=%d, want %d (lex order)", n, p, r, want)
			}
			q := mustUnrank(n, r)
			if !q.Equal(p) {
				t.Fatalf("Unrank(Rank(%v)) = %v", p, q)
			}
			want++
			return true
		})
		if want != Factorial(n) {
			t.Fatalf("n=%d enumerated %d perms, want %d", n, want, Factorial(n))
		}
	}
}

func TestUnrankRange(t *testing.T) {
	if _, err := Unrank(3, 6); err != ErrRankRange {
		t.Fatalf("Unrank(3,6) err = %v, want ErrRankRange", err)
	}
	if _, err := Unrank(3, 5); err != nil {
		t.Fatalf("Unrank(3,5) err = %v", err)
	}
}

func TestRankUnrankQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		r := uint64(rng.Int63n(int64(Factorial(n))))
		p, err := Unrank(n, r)
		return err == nil && p.Rank() == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestInverseCompose(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		p := mustUnrank(n, uint64(rng.Int63n(int64(Factorial(n)))))
		q := mustUnrank(n, uint64(rng.Int63n(int64(Factorial(n)))))
		// p ∘ p⁻¹ = id, (p∘q)⁻¹ = q⁻¹∘p⁻¹
		if !compose(p, p.Inverse()).IsIdentity() {
			return false
		}
		if !compose(p.Inverse(), p).IsIdentity() {
			return false
		}
		lhs := compose(p, q).Inverse()
		rhs := compose(q.Inverse(), p.Inverse())
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParityGeneratorFlips(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		p := mustUnrank(n, uint64(rng.Int63n(int64(Factorial(n)))))
		i := 2 + rng.Intn(n-1)
		return p.Parity() != p.SwapFirst(i).Parity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if Identity(5).Parity() != 0 {
		t.Fatal("identity parity must be 0")
	}
}

func TestCyclesKnownCases(t *testing.T) {
	cases := []struct {
		p         string
		displaced int
		cycles    int
		firstHome bool
		firstLen  int
	}{
		{"1234", 0, 0, true, 0},
		{"2134", 2, 1, false, 2},
		{"1324", 2, 1, true, 0},
		{"2143", 4, 2, false, 2},
		{"2341", 4, 1, false, 4},
		{"13254", 4, 2, true, 0},
		{"21435", 4, 2, false, 2},
	}
	for _, c := range cases {
		p, err := Parse(c.p)
		if err != nil {
			t.Fatal(err)
		}
		info := p.Cycles()
		if info.Displaced != c.displaced || info.Cycles != c.cycles ||
			info.FirstHome != c.firstHome || info.FirstCycleLen != c.firstLen {
			t.Errorf("%s: got %+v, want %+v", c.p, info, c)
		}
	}
}

func TestCyclesConsistentWithType(t *testing.T) {
	ForEach(6, func(p Permutation) bool {
		info := p.Cycles()
		typ := p.Type()
		if (typ.FirstLen > 0) == info.FirstHome {
			t.Fatalf("%v: FirstLen %d vs FirstHome %v", p, typ.FirstLen, info.FirstHome)
		}
		if typ.FirstLen != info.FirstCycleLen {
			t.Fatalf("%v: FirstLen mismatch", p)
		}
		sum, cnt := typ.FirstLen, 0
		if typ.FirstLen > 0 {
			cnt = 1
		}
		for _, l := range typ.Others {
			sum += l
			cnt++
			if l < 2 {
				t.Fatalf("%v: trivial cycle in Others", p)
			}
		}
		if sum != info.Displaced || cnt != info.Cycles {
			t.Fatalf("%v: type %v inconsistent with info %+v", p, typ, info)
		}
		return true
	})
}

func TestTypeKeyCanonical(t *testing.T) {
	a := CycleType{FirstLen: 2, Others: []int{3, 2}}
	b := CycleType{FirstLen: 2, Others: []int{3, 2}}
	if a.Key() != b.Key() {
		t.Fatal("equal types produced different keys")
	}
	c := CycleType{FirstLen: 0, Others: []int{2, 3, 2}}
	if a.Key() == c.Key() {
		t.Fatal("distinct types produced equal keys")
	}
}

func TestTypeOthersSortedDescending(t *testing.T) {
	ForEach(7, func(p Permutation) bool {
		typ := p.Type()
		for i := 1; i < len(typ.Others); i++ {
			if typ.Others[i] > typ.Others[i-1] {
				t.Fatalf("%v: Others not descending: %v", p, typ.Others)
			}
		}
		return true
	})
}

func TestStringParseRoundTrip(t *testing.T) {
	ForEach(5, func(p Permutation) bool {
		q, err := Parse(p.String())
		if err != nil || !q.Equal(p) {
			t.Fatalf("Parse(String(%v)) = %v, %v", p, q, err)
		}
		return true
	})
}

func TestFactorial(t *testing.T) {
	want := []uint64{1, 1, 2, 6, 24, 120, 720, 5040}
	for n, w := range want {
		if got := Factorial(n); got != w {
			t.Errorf("Factorial(%d) = %d, want %d", n, got, w)
		}
	}
	if Factorial(20) != 2432902008176640000 {
		t.Error("Factorial(20) wrong")
	}
}

func TestForEachEarlyStop(t *testing.T) {
	count := 0
	ForEach(5, func(Permutation) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early stop after %d, want 10", count)
	}
}

func BenchmarkRank(b *testing.B) {
	p := mustUnrank(12, 123456789)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Rank()
	}
}

func BenchmarkUnrank(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = Unrank(12, uint64(i)%Factorial(12))
	}
}

func BenchmarkCycles(b *testing.B) {
	p := mustUnrank(12, 400000001) // < 12! = 479001600
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Cycles()
	}
}

// mustUnrank is Unrank for ranks the test knows to be in range.
// compose returns r = p∘q, r[i] = p[q[i]-1]: apply q first, then p,
// reading permutations as maps from positions to symbols.
func compose(p, q Permutation) Permutation {
	r := make(Permutation, len(p))
	for i := range r {
		r[i] = p[q[i]-1]
	}
	return r
}

func mustUnrank(n int, r uint64) Permutation {
	p, err := Unrank(n, r)
	if err != nil {
		panic(err)
	}
	return p
}
