package main

import (
	"testing"
	"time"
)

func TestZipfStreamSeeded(t *testing.T) {
	a, b, c := newZipfStream(7, 1000), newZipfStream(7, 1000), newZipfStream(8, 1000)
	da, db, dc := a.take(500), b.take(500), c.take(500)
	same := true
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("draw %d differs at one seed: %d vs %d", i, da[i], db[i])
		}
		if da[i] != dc[i] {
			same = false
		}
		if da[i] < 0 || da[i] >= 1000 {
			t.Fatalf("draw %d out of range: %d", i, da[i])
		}
	}
	if same {
		t.Error("seeds 7 and 8 drew identical streams")
	}
}

func TestZipfRepeatShare(t *testing.T) {
	z := newZipfStream(3, 2000)
	draws := z.take(400)
	seen := map[int]bool{}
	repeats := 0
	for _, d := range draws {
		if seen[d] {
			repeats++
		}
		seen[d] = true
	}
	if got, want := z.repeatShare(), float64(repeats)/400; got != want {
		t.Fatalf("repeat share %v, counted %v", got, want)
	}
	// A Zipf stream concentrates on popular items: about twice as many
	// draws repeat as the ~10% a uniform stream of 400 over 2,000 would,
	// and the share grows as the stream gets longer.
	early := z.repeatShare()
	if early < 0.18 {
		t.Errorf("repeat share after 400 draws = %v, want Zipf skew well above uniform", early)
	}
	z.take(4000)
	if late := z.repeatShare(); late <= early {
		t.Errorf("repeat share did not grow with the stream: %v then %v", early, late)
	}
}

func TestArrivalAccounting(t *testing.T) {
	a := arrival{Due: 10 * time.Millisecond, Sent: 15 * time.Millisecond, Done: 30 * time.Millisecond}
	if a.Latency() != 20*time.Millisecond {
		t.Errorf("latency %v, want 20ms counted from the due time", a.Latency())
	}
	if a.Late() != 5*time.Millisecond {
		t.Errorf("lateness %v, want 5ms", a.Late())
	}
}

func TestOpenLoopKeepsUp(t *testing.T) {
	// 100 requests/s, 2 connections, 1ms of service: the schedule holds.
	arr := openLoop(30, 100, 2, func(int) bool { time.Sleep(time.Millisecond); return true })
	for i, a := range arr {
		if want := time.Duration(i) * 10 * time.Millisecond; a.Due != want {
			t.Fatalf("request %d due %v, want %v", i, a.Due, want)
		}
		if !a.OK || a.Done < a.Sent || a.Sent < a.Due {
			t.Fatalf("request %d has an impossible timeline %+v", i, a)
		}
	}
	if g := backlogGrowth(arr); g > maxGrowth {
		t.Errorf("backlog growth %v for a server that keeps up", g)
	}
}

func TestOpenLoopChargesStalls(t *testing.T) {
	// 1,000 requests/s on one connection with 4ms of service: the server
	// manages 250/s, so every request is sent later than the last, and
	// its latency counts that wait.
	const n = 40
	arr := openLoop(n, 1000, 1, func(int) bool { time.Sleep(4 * time.Millisecond); return true })
	last := arr[n-1]
	if last.Late() < 100*time.Millisecond {
		t.Errorf("last request only %v late; a 4x overload should slip the schedule by ~%v", last.Late(), 3*n*time.Millisecond)
	}
	if last.Latency() < last.Late()+4*time.Millisecond {
		t.Errorf("latency %v does not include the %v the request waited to be sent", last.Latency(), last.Late())
	}
	if g := backlogGrowth(arr); g <= maxGrowth {
		t.Errorf("backlog growth %v not detected under overload", g)
	}
}
