package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
	"time"
)

func TestLayerPowerIsWholeWattsInRange(t *testing.T) {
	seen := map[float64]bool{}
	for l := 1; l <= 1000; l++ {
		p := layerPower(7, l)
		if p != float64(int(p)) || p < 200 || p > 350 {
			t.Fatalf("layerPower(7, %d) = %v, want whole watts in 200..350", l, p)
		}
		seen[p] = true
	}
	if len(seen) < 100 {
		t.Errorf("only %d distinct powers over 1000 layers", len(seen))
	}
	differ := 0
	for l := 1; l <= 100; l++ {
		if layerPower(7, l) != layerPower(8, l) {
			differ++
		}
	}
	if differ < 90 {
		t.Errorf("seeds 7 and 8 give the same power on %d of 100 layers", 100-differ)
	}
}

func TestWindowSums(t *testing.T) {
	powers := []float64{200, 210, 220, 230}
	got := windowSums(powers, 3)
	want := []float64{2000, 4100, 6300, 6600}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("windowSums = %v, want %v", got, want)
		}
	}
}

// The harness's fault-free dump for power(l) = l and window 3 is the
// format strata-worker writes; the oracle must produce it byte for byte.
func TestExpectedDumpFormat(t *testing.T) {
	powers := []float64{1, 2, 3, 4}
	dump := expectedDump(windowSums(powers, 3))
	want := "" +
		"out/0000000000000001 0000000000000001000000000000000a\n" +
		"out/0000000000000002 0000000000000002000000000000001e\n" +
		"out/0000000000000003 0000000000000003000000000000003c\n" +
		"out/0000000000000004 0000000000000004000000000000005a\n"
	if !bytes.Equal(dump, []byte(want)) {
		t.Fatalf("dump:\n%s\nwant:\n%s", dump, want)
	}
	if got, want := expectedDigest(windowSums(powers, 3)), fmt.Sprintf("%x", sha256.Sum256([]byte(want))); got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
}

// The live schedule is the same for a seed, keeps the mean gap, and draws
// every gap from half to one and a half interval.
func TestLiveSchedule(t *testing.T) {
	start := time.Unix(0, 0)
	const interval = 50 * time.Millisecond
	a := liveSchedule(start, interval, 1000, 9)
	b := liveSchedule(start, interval, 1000, 9)
	if !a[0].Equal(start) {
		t.Fatalf("first record due %v, want the start", a[0])
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("record %d: due %v and %v for one seed", i, a[i], b[i])
		}
		if i > 0 {
			if gap := a[i].Sub(a[i-1]); gap < interval/2 || gap >= 3*interval/2 {
				t.Fatalf("gap %d is %v, want [%v, %v)", i, gap, interval/2, 3*interval/2)
			}
		}
	}
	mean := a[len(a)-1].Sub(start) / time.Duration(len(a)-1)
	if mean < 48*time.Millisecond || mean > 52*time.Millisecond {
		t.Errorf("mean gap %v, want about %v", mean, interval)
	}
}
