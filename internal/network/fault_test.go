package network

import (
	"testing"

	"dqalloc/internal/sim"
)

func TestRingDropInvokesOnDropOnly(t *testing.T) {
	s := sim.New()
	r := NewRing(s, 2, 1)
	fates := []bool{false, true, false} // second message dropped
	i := 0
	r.SetFault(func() (bool, float64) { d := fates[i]; i++; return d, 0 })
	var delivered, dropped []float64
	send := func() {
		r.Send(Message{
			From: 0, To: 1, Size: 2,
			OnDeliver: func() { delivered = append(delivered, s.Now()) },
			OnDrop:    func() { dropped = append(dropped, s.Now()) },
		})
	}
	s.At(0, func() { send(); send(); send() })
	s.Run()
	if len(delivered) != 2 || len(dropped) != 1 {
		t.Fatalf("delivered %v dropped %v, want 2 and 1", delivered, dropped)
	}
	// The dropped transmission still occupies the ring for its slot.
	if dropped[0] != 4 || delivered[1] != 6 {
		t.Errorf("drop at %v, final delivery at %v, want 4 and 6", dropped[0], delivered[1])
	}
	if r.TotalDropped() != 1 || r.Dropped() != 1 {
		t.Errorf("dropped counters = %d/%d, want 1/1", r.TotalDropped(), r.Dropped())
	}
	if r.Sent() != r.TotalDelivered()+r.TotalDropped()+uint64(r.Pending()) {
		t.Errorf("conservation violated: sent %d, delivered %d, dropped %d, pending %d",
			r.Sent(), r.TotalDelivered(), r.TotalDropped(), r.Pending())
	}
	// Dropped bytes are not carried.
	if r.BytesCarried() != 4 {
		t.Errorf("bytes carried = %v, want 4", r.BytesCarried())
	}
}

func TestRingFaultDelayExtendsOccupancy(t *testing.T) {
	s := sim.New()
	r := NewRing(s, 2, 1)
	r.SetFault(func() (bool, float64) { return false, 3 })
	var times []float64
	deliver := func() { times = append(times, s.Now()) }
	s.At(0, func() {
		r.Send(Message{From: 0, To: 1, Size: 2, OnDeliver: deliver})
		r.Send(Message{From: 0, To: 1, Size: 2, OnDeliver: deliver})
	})
	s.Run()
	// Each transmission takes 2 + 3 extra; they serialize.
	if len(times) != 2 || times[0] != 5 || times[1] != 10 {
		t.Errorf("delivery times = %v, want [5 10]", times)
	}
}

func TestRingDropWithoutOnDropIsCounted(t *testing.T) {
	s := sim.New()
	r := NewRing(s, 2, 1)
	r.SetFault(func() (bool, float64) { return true, 0 })
	s.At(0, func() {
		r.Send(Message{From: 0, To: 1, Size: 1, OnDeliver: func() { t.Error("dropped message delivered") }})
	})
	s.Run()
	if r.TotalDropped() != 1 || r.Pending() != 0 {
		t.Errorf("dropped/pending = %d/%d, want 1/0", r.TotalDropped(), r.Pending())
	}
}

func TestResetStatsKeepsLifetimeDropCounter(t *testing.T) {
	s := sim.New()
	r := NewRing(s, 2, 1)
	r.SetFault(func() (bool, float64) { return true, 0 })
	s.At(0, func() {
		r.Send(Message{From: 0, To: 1, Size: 1, OnDeliver: func() {}})
	})
	s.Run()
	r.ResetStats(s.Now())
	if r.Dropped() != 0 {
		t.Errorf("windowed drop counter %d after reset", r.Dropped())
	}
	if r.TotalDropped() != 1 {
		t.Errorf("lifetime drop counter %d after reset, want 1", r.TotalDropped())
	}
}

// TestRingHandleGetsArgAndFate pins the bound-handler form: Handle runs
// once per message with its Arg, told whether the message dropped.
func TestRingHandleGetsArgAndFate(t *testing.T) {
	s := sim.New()
	r := NewRing(s, 2, 1)
	fates := []bool{false, true, false}
	i := 0
	r.SetFault(func() (bool, float64) { d := fates[i]; i++; return d, 0 })
	type got struct {
		arg     int
		dropped bool
	}
	var seen []got
	handle := func(arg any, dropped bool) { seen = append(seen, got{*arg.(*int), dropped}) }
	args := []int{10, 11, 12}
	s.At(0, func() {
		for j := range args {
			r.Send(Message{From: 0, To: 1, Size: 1, Handle: handle, Arg: &args[j]})
		}
	})
	s.Run()
	want := []got{{10, false}, {11, true}, {12, false}}
	if len(seen) != len(want) {
		t.Fatalf("handler saw %v, want %v", seen, want)
	}
	for j := range want {
		if seen[j] != want[j] {
			t.Fatalf("handler saw %v, want %v", seen, want)
		}
	}
}

func TestRingSendNeedsOneCallbackForm(t *testing.T) {
	for _, m := range []Message{
		{From: 0, To: 1},
		{From: 0, To: 1, OnDeliver: func() {}, Handle: func(any, bool) {}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Send accepted %+v", m)
				}
			}()
			NewRing(sim.New(), 2, 1).Send(m)
		}()
	}
}
