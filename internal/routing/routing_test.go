package routing

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"starperf/internal/cfgerr"
	"starperf/internal/stargraph"
	"starperf/internal/topology"
)

func s5() *stargraph.Graph { return stargraph.MustNew(5) }

func TestNewLayouts(t *testing.T) {
	g := s5() // H=6, V2min=4
	cases := []struct {
		kind   Kind
		v      int
		ok     bool
		v1, v2 int
	}{
		{NHop, 4, true, 0, 4},
		{NHop, 3, false, 0, 0},
		{Nbc, 4, true, 0, 4},
		{Nbc, 6, true, 0, 6},
		{EnhancedNbc, 6, true, 2, 4},
		{EnhancedNbc, 9, true, 5, 4},
		{EnhancedNbc, 12, true, 8, 4},
		{EnhancedNbc, 4, false, 0, 0},
	}
	for _, c := range cases {
		s, err := New(c.kind, g, c.v)
		if (err == nil) != c.ok {
			t.Fatalf("New(%v,%d): err=%v, want ok=%v", c.kind, c.v, err, c.ok)
		}
		if err == nil && (s.V1 != c.v1 || s.V2 != c.v2 || s.V() != c.v) {
			t.Fatalf("New(%v,%d): V1=%d V2=%d, want %d,%d", c.kind, c.v, s.V1, s.V2, c.v1, c.v2)
		}
	}
}

func TestClassHelpers(t *testing.T) {
	s := MustNew(EnhancedNbc, s5(), 6) // V1=2, V2=4
	for vc := 0; vc < 2; vc++ {
		if !s.IsClassA(vc) {
			t.Fatalf("vc %d should be class a", vc)
		}
	}
	for vc := 2; vc < 6; vc++ {
		if s.IsClassA(vc) {
			t.Fatalf("vc %d should be class b", vc)
		}
		if s.LevelOf(vc) != vc-2 || s.VCOfLevel(vc-2) != vc {
			t.Fatalf("level mapping broken at vc %d", vc)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("LevelOf(class a) did not panic")
		}
	}()
	s.LevelOf(0)
}

func TestNHopExactLevel(t *testing.T) {
	s := MustNew(NHop, s5(), 4)
	st := InitialState()
	lo, hi := s.ClassBWindow(st, true, 0, 3)
	if lo != 1 || hi != 1 {
		t.Fatalf("NHop window [%d,%d], want [1,1]", lo, hi)
	}
	st = s.Advance(st, true, s.VCOfLevel(1))
	lo, hi = s.ClassBWindow(st, false, 1, 2)
	if lo != 1 || hi != 1 {
		t.Fatalf("NHop window after neg hop [%d,%d], want [1,1]", lo, hi)
	}
}

func TestNbcWindowBounds(t *testing.T) {
	s := MustNew(Nbc, s5(), 6) // V2=6 levels, MaxNeg=3
	st := InitialState()
	// first hop, negative, entering colour-0 node with 5 hops left:
	// R' = ⌊5/2⌋ = 2, window = [1, 6-1-2] = [1,3]
	lo, hi := s.ClassBWindow(st, true, 0, 5)
	if lo != 1 || hi != 3 {
		t.Fatalf("window [%d,%d], want [1,3]", lo, hi)
	}
	// positive hop into colour-1 node, 4 left: R' = ⌈4/2⌉ = 2,
	// window = [0, 3]
	lo, hi = s.ClassBWindow(st, false, 1, 4)
	if lo != 0 || hi != 3 {
		t.Fatalf("window [%d,%d], want [0,3]", lo, hi)
	}
}

// TestWindowNeverEmpty walks random minimal paths under every
// algorithm, always taking the *highest* eligible class-b level (the
// adversarial choice for feasibility), and asserts the escape window
// never empties and the ordering invariants hold.
func TestWindowNeverEmpty(t *testing.T) {
	g := s5()
	rng := rand.New(rand.NewSource(42))
	for _, kind := range []Kind{NHop, Nbc, EnhancedNbc} {
		v := 4
		if kind == EnhancedNbc {
			v = 6
		}
		s := MustNew(kind, g, v)
		for trial := 0; trial < 4000; trial++ {
			src, dst := rng.Intn(g.N()), rng.Intn(g.N())
			cur, st := src, InitialState()
			prevLevel := -1
			for cur != dst {
				dims := g.ProfitableDims(cur, dst, nil)
				dim := dims[rng.Intn(len(dims))]
				next := g.Neighbor(cur, dim)
				hopNeg := g.Color(cur) == 1
				dRem := g.Distance(next, dst)
				lo, hi := s.ClassBWindow(st, hopNeg, g.Color(next), dRem)
				if lo > hi {
					t.Fatalf("%v: empty window at %d->%d (st=%+v, dRem=%d)",
						kind, cur, next, st, dRem)
				}
				if hi > s.V2-1 || lo < 0 {
					t.Fatalf("%v: window [%d,%d] outside [0,%d]", kind, lo, hi, s.V2-1)
				}
				// adversarial: occupy the highest level
				vc := s.VCOfLevel(hi)
				if hopNeg && hi < prevLevel+1 {
					t.Fatalf("%v: level did not increase on negative hop", kind)
				}
				if hi < prevLevel {
					t.Fatalf("%v: level decreased %d -> %d", kind, prevLevel, hi)
				}
				st = s.Advance(st, hopNeg, vc)
				prevLevel = st.Level
				cur = next
			}
			if st.NegHops != topology.RequiredNegativeHops(g.Color(src), g.Distance(src, dst)) {
				t.Fatalf("%v: neg hops %d, want %d", kind, st.NegHops,
					topology.RequiredNegativeHops(g.Color(src), g.Distance(src, dst)))
			}
		}
	}
}

// TestEligibleInvariants property-checks EligibleVCs: class-a always
// present for EnhancedNbc, all indices in range, sorted, no
// duplicates, and consistent with ClassBWindow.
func TestEligibleInvariants(t *testing.T) {
	g := s5()
	specs := []Spec{
		MustNew(NHop, g, 4),
		MustNew(Nbc, g, 5),
		MustNew(EnhancedNbc, g, 6),
		MustNew(EnhancedNbc, g, 12),
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := specs[rng.Intn(len(specs))]
		// Level may lag NegHops (class-a hops) or lead it (bonus
		// cards); both orders are legal states.
		st := State{NegHops: rng.Intn(4), Level: rng.Intn(s.V2)}
		hopNeg := rng.Intn(2) == 1
		nextColor := rng.Intn(2)
		dRem := rng.Intn(7)
		// colour consistency: a negative hop lands on colour 0
		if hopNeg {
			nextColor = 0
		} else {
			nextColor = 1
		}
		buf := s.EligibleVCs(st, hopNeg, nextColor, dRem, nil)
		seen := map[int]bool{}
		for i, vc := range buf {
			if vc < 0 || vc >= s.V() || seen[vc] {
				return false
			}
			seen[vc] = true
			if i > 0 && buf[i-1] >= vc {
				return false
			}
		}
		for vc := 0; vc < s.V1; vc++ {
			if !seen[vc] {
				return false
			}
		}
		lo, hi := s.ClassBWindow(st, hopNeg, nextColor, dRem)
		for l := 0; l < s.V2; l++ {
			want := l >= lo && l <= hi
			if seen[s.VCOfLevel(l)] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestAdvance(t *testing.T) {
	s := MustNew(EnhancedNbc, s5(), 6)
	st := InitialState()
	st = s.Advance(st, true, 0) // class-a negative hop
	if st.NegHops != 1 || st.Level != 0 {
		t.Fatalf("after class-a neg hop: %+v", st)
	}
	st = s.Advance(st, false, s.VCOfLevel(2))
	if st.NegHops != 1 || st.Level != 2 {
		t.Fatalf("after class-b level-2 hop: %+v", st)
	}
}

func TestKindPolicyStrings(t *testing.T) {
	if NHop.String() != "NHop" || Nbc.String() != "Nbc" || EnhancedNbc.String() != "Enhanced-Nbc" {
		t.Fatal("Kind.String broken")
	}
	if PreferClassA.String() != "prefer-class-a" || RandomAny.String() != "random-any" ||
		LowestEscapeFirst.String() != "lowest-escape-first" {
		t.Fatal("Policy.String broken")
	}
	if Kind(99).String() == "" || Policy(99).String() == "" {
		t.Fatal("unknown enum String empty")
	}
}

func TestParseKind(t *testing.T) {
	for s, want := range map[string]Kind{"": EnhancedNbc, "enbc": EnhancedNbc, "enhanced-nbc": EnhancedNbc, "nbc": Nbc, "nhop": NHop} {
		if got, err := ParseKind(s); err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	_, err := ParseKind("Nbc")
	if !errors.Is(err, cfgerr.ErrInvalid) || !strings.Contains(err.Error(), "(want nhop, nbc or enbc)") {
		t.Errorf("ParseKind(Nbc) error = %v, want an invalid-config error with the spelling hint", err)
	}
}
