package dupack

import (
	"reflect"
	"testing"
	"testing/quick"

	"tcppr/internal/tcp"
)

func TestNMKeepsThreshold(t *testing.T) {
	if got := (nm{}).onSpurious(7, 42); got != 7 {
		t.Errorf("nm.onSpurious(7, 42) = %d, want 7", got)
	}
}

func TestInc1Increments(t *testing.T) {
	p := inc1{}
	th := 3
	for i := 1; i <= 5; i++ {
		th = p.onSpurious(th, 100)
		if th != 3+i {
			t.Fatalf("after %d spurious events dupthresh = %d, want %d", i, th, 3+i)
		}
	}
}

func TestIncNAverages(t *testing.T) {
	cases := []struct{ cur, n, want int }{
		{3, 9, 6},
		{3, 3, 3},
		{10, 4, 7},
		{3, 4, 4}, // rounds up
	}
	for _, c := range cases {
		if got := (incN{}).onSpurious(c.cur, c.n); got != c.want {
			t.Errorf("incN.onSpurious(%d, %d) = %d, want %d", c.cur, c.n, got, c.want)
		}
	}
}

func TestEWMAConvergesToObservations(t *testing.T) {
	e := &ewma{}
	th := 3
	for i := 0; i < 40; i++ {
		th = e.onSpurious(th, 20)
	}
	if th < 18 || th > 22 {
		t.Errorf("EWMA after 40 observations of 20 = %d, want ~20", th)
	}
}

func TestEWMAFirstObservationSeedsFromCurrent(t *testing.T) {
	e := &ewma{}
	got := e.onSpurious(3, 11)
	// avg seeds at 3, then 0.75*3 + 0.25*11 = 5.
	if got != 5 {
		t.Errorf("first EWMA observation = %d, want 5", got)
	}
}

// Property: EWMA output always lies between the running minimum and
// maximum of its inputs (seeded with the initial threshold).
func TestEWMABoundedProperty(t *testing.T) {
	f := func(obs []uint8) bool {
		e := &ewma{}
		th := 3
		lo, hi := 3, 3
		for _, o := range obs {
			n := int(o%64) + 1
			if n < lo {
				lo = n
			}
			if n > hi {
				hi = n
			}
			th = e.onSpurious(th, n)
			if th < lo-1 || th > hi+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVariantsComplete(t *testing.T) {
	env := newHarness().env()
	for name, c := range map[string]struct {
		mk   func(tcp.SenderEnv, Config) *SACKSender
		want dupThreshPolicy
	}{
		"DSACK-NM": {DSACKNM, nm{}},
		"Inc by 1": {DSACKInc1, inc1{}},
		"Inc by N": {DSACKIncN, incN{}},
		"EWMA":     {DSACKEWMA, &ewma{}},
	} {
		if got := c.mk(env, Config{}).policy; got == nil || reflect.TypeOf(got) != reflect.TypeOf(c.want) {
			t.Errorf("%s built policy %T, want %T", name, got, c.want)
		}
	}
	// Each sender must get independent policy state (EWMA is stateful).
	a, b := DSACKEWMA(env, Config{}).policy, DSACKEWMA(env, Config{}).policy
	a.onSpurious(3, 60)
	if got := b.onSpurious(3, 3); got > 4 {
		t.Error("EWMA senders share policy state")
	}
}
