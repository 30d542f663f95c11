package telemetry

import (
	"context"
	"sync"
)

// StreamDropped counts events discarded by bounded fan-out subscribers
// (oldest-first ring overwrite). It is the process-wide total across every
// Bus that does not supply its own counter: a rising value means some
// consumer is slower than its producer — the producer was never delayed.
var StreamDropped = Default.Counter("telemetry.stream_dropped",
	"Events dropped by slow live-stream subscribers (bounded ring overwrite); the publishing hot path is never blocked.")

// Bus is a bounded fan-out event bus: Publish delivers a value to every
// subscriber's private ring buffer and never blocks, no matter how slow any
// subscriber is. A subscriber that falls more than its buffer behind loses
// the oldest undelivered values (counted on StreamDropped or the counter
// given to NewBus) — a publisher such as the job store, which publishes
// under its write lock, must never wait on an observer.
//
// The zero value is not usable; create with NewBus. All methods are safe for
// concurrent use.
type Bus[T any] struct {
	mu      sync.Mutex
	subs    map[*Sub[T]]struct{}
	dropped *Counter
	closed  bool
}

// NewBus returns an empty bus. dropped counts ring overwrites across all
// subscribers; nil uses the process-wide StreamDropped counter.
func NewBus[T any](dropped *Counter) *Bus[T] {
	if dropped == nil {
		dropped = StreamDropped
	}
	return &Bus[T]{subs: map[*Sub[T]]struct{}{}, dropped: dropped}
}

// Subscribe registers a subscriber with a ring buffer of buf values
// (default 64 when buf <= 0). A non-nil filter is evaluated on the publish
// path; values it rejects never occupy ring space. Cancel the subscription
// when done, or its buffer pins memory for the bus's lifetime. Subscribing
// to a closed bus returns an already-closed subscription whose Next reports
// no more values.
func (b *Bus[T]) Subscribe(buf int, filter func(T) bool) *Sub[T] {
	if buf <= 0 {
		buf = 64
	}
	s := &Sub[T]{bus: b, filter: filter, ring: make([]T, buf), notify: make(chan struct{}, 1)}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		s.closed = true
		return s
	}
	b.subs[s] = struct{}{}
	return s
}

// Publish delivers v to every subscriber whose filter accepts it. It holds
// only short per-subscriber mutexes — O(subscribers), no I/O, no blocking —
// so it is safe to call from the diagnosis hot path and from under the
// store's write lock.
func (b *Bus[T]) Publish(v T) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for s := range b.subs {
		s.push(v, b.dropped)
	}
}

// Close ends every subscription: each subscriber drains what its ring still
// holds, then Next reports no more values. Publish on a closed bus is a
// no-op.
func (b *Bus[T]) Close() {
	b.mu.Lock()
	subs := b.subs
	b.subs = map[*Sub[T]]struct{}{}
	b.closed = true
	b.mu.Unlock()
	for s := range subs {
		s.close()
	}
}

// Sub is one bounded subscription to a Bus. Consume with Next; release with
// Cancel.
type Sub[T any] struct {
	bus    *Bus[T]
	filter func(T) bool
	notify chan struct{}

	mu      sync.Mutex
	ring    []T
	head, n int
	dropped int64
	closed  bool
}

// push appends v to the ring, overwriting the oldest value when full.
// Called with the bus lock held; takes only the subscription's own lock.
func (s *Sub[T]) push(v T, dropped *Counter) {
	if s.filter != nil && !s.filter(v) {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.n == len(s.ring) {
		s.ring[s.head] = v
		s.head = (s.head + 1) % len(s.ring)
		s.dropped++
		dropped.Inc()
	} else {
		s.ring[(s.head+s.n)%len(s.ring)] = v
		s.n++
	}
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Next returns the oldest undelivered value. It blocks until a value
// arrives, ctx is done, or the subscription ends (Cancel/bus Close) — the
// latter two report ok=false. Buffered values remain deliverable after the
// subscription ends, so a consumer sees everything published before the
// close.
func (s *Sub[T]) Next(ctx context.Context) (v T, ok bool) {
	var zero T
	for {
		s.mu.Lock()
		if s.n > 0 {
			v = s.ring[s.head]
			s.ring[s.head] = zero // do not pin delivered values
			s.head = (s.head + 1) % len(s.ring)
			s.n--
			s.mu.Unlock()
			return v, true
		}
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return zero, false
		}
		select {
		case <-ctx.Done():
			return zero, false
		case <-s.notify:
		}
	}
}

// Dropped returns how many values this subscription lost to ring overwrites.
func (s *Sub[T]) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Cancel unregisters the subscription from its bus and unblocks any pending
// Next. Values still buffered remain deliverable. Safe to call repeatedly.
func (s *Sub[T]) Cancel() {
	if s.bus != nil {
		s.bus.mu.Lock()
		delete(s.bus.subs, s)
		s.bus.mu.Unlock()
	}
	s.close()
}

func (s *Sub[T]) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}
