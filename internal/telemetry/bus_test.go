package telemetry

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestBusFanOutDelivery(t *testing.T) {
	b := NewBus[int](NewRegistry().Counter("drops"))
	a := b.Subscribe(8, nil)
	c := b.Subscribe(8, func(v int) bool { return v%2 == 0 })
	defer a.Cancel()
	defer c.Cancel()
	for i := 0; i < 6; i++ {
		b.Publish(i)
	}
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		v, ok := a.Next(ctx)
		if !ok || v != i {
			t.Fatalf("a.Next = %d,%v want %d,true", v, ok, i)
		}
	}
	for _, want := range []int{0, 2, 4} {
		v, ok := c.Next(ctx)
		if !ok || v != want {
			t.Fatalf("filtered Next = %d,%v want %d,true", v, ok, want)
		}
	}
}

// TestBusSlowSubscriberDropsOldest: a full ring overwrites the oldest value
// and counts the drop; the publisher never blocks, and the subscriber's view
// is the most recent window.
func TestBusSlowSubscriberDropsOldest(t *testing.T) {
	reg := NewRegistry()
	drops := reg.Counter("drops")
	b := NewBus[int](drops)
	s := b.Subscribe(4, nil)
	defer s.Cancel()
	for i := 0; i < 10; i++ {
		b.Publish(i)
	}
	if got := s.Dropped(); got != 6 {
		t.Errorf("Dropped = %d, want 6", got)
	}
	if got := drops.Value(); got != 6 {
		t.Errorf("drop counter = %d, want 6", got)
	}
	ctx := context.Background()
	for _, want := range []int{6, 7, 8, 9} {
		v, ok := s.Next(ctx)
		if !ok || v != want {
			t.Fatalf("Next = %d,%v want %d,true (newest window survives)", v, ok, want)
		}
	}
}

func TestBusNextBlocksAndWakes(t *testing.T) {
	b := NewBus[string](nil)
	s := b.Subscribe(4, nil)
	defer s.Cancel()
	got := make(chan string, 1)
	go func() {
		v, _ := s.Next(context.Background())
		got <- v
	}()
	time.Sleep(10 * time.Millisecond)
	b.Publish("wake")
	select {
	case v := <-got:
		if v != "wake" {
			t.Fatalf("Next = %q", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next never woke on Publish")
	}

	// Context cancellation unblocks a waiting Next with ok=false.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() {
		_, ok := s.Next(ctx)
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Next reported ok after ctx cancel")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next never returned after ctx cancel")
	}
}

// TestBusCloseDrains: values published before Close stay deliverable; after
// the ring drains, Next reports the end. Subscribing to a closed bus ends
// immediately.
func TestBusCloseDrains(t *testing.T) {
	b := NewBus[int](nil)
	s := b.Subscribe(4, nil)
	b.Publish(1)
	b.Publish(2)
	b.Close()
	ctx := context.Background()
	for _, want := range []int{1, 2} {
		v, ok := s.Next(ctx)
		if !ok || v != want {
			t.Fatalf("post-close Next = %d,%v want %d,true", v, ok, want)
		}
	}
	if _, ok := s.Next(ctx); ok {
		t.Fatal("Next reported a value after the drained close")
	}
	if _, ok := b.Subscribe(4, nil).Next(ctx); ok {
		t.Fatal("subscription to a closed bus delivered a value")
	}
	b.Publish(3) // must not panic or deliver
}

// TestBusConcurrentPublishSubscribe hammers the bus from publishers,
// subscribers and cancellers at once; run under -race this is the
// thread-safety gate. Every subscriber's delivered sequence must be a
// subsequence of the published order (monotone values). Publishers take the
// next value and publish it under one lock, so value order is publish order.
func TestBusConcurrentPublishSubscribe(t *testing.T) {
	b := NewBus[int](NewRegistry().Counter("drops"))
	var wg sync.WaitGroup
	var seq int
	var seqMu sync.Mutex
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				seqMu.Lock()
				seq++
				b.Publish(seq)
				seqMu.Unlock()
			}
		}()
	}
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := b.Subscribe(16, nil)
			defer s.Cancel()
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			last := 0
			for {
				v, ok := s.Next(ctx)
				if !ok {
					return
				}
				if v <= last {
					t.Errorf("out-of-order delivery: %d after %d", v, last)
					return
				}
				last = v
			}
		}()
	}
	wg.Wait()
	b.Close()
}
