package obs

// eventRing is a drop-oldest FIFO of bus events holding at most bound
// of them. Its storage starts empty and grows on demand, about doubling
// and clamped to bound, so a ring sized for a burst costs what it holds:
// the bus replay ring, each subscriber's buffer and the flight
// recorder's tail are all one. Not safe for concurrent use; each owner
// guards its ring with its own mutex.
type eventRing struct {
	buf     []BusEvent // storage; grows up to bound, then wraps
	head, n int        // index of the oldest event, and the event count
	bound   int
}

// minRingGrowth is the storage a ring allocates on its first event.
const minRingGrowth = 8

func newEventRing(bound int) eventRing { return eventRing{bound: bound} }

// push appends ev, evicting the oldest event when the ring holds bound
// of them. It reports whether an event was evicted.
func (r *eventRing) push(ev BusEvent) (evicted bool) {
	if r.n == len(r.buf) {
		if len(r.buf) < r.bound {
			r.grow()
		} else {
			r.head = (r.head + 1) % len(r.buf)
			r.n--
			evicted = true
		}
	}
	r.buf[(r.head+r.n)%len(r.buf)] = ev
	r.n++
	return evicted
}

// grow moves a full ring into storage about twice its size, clamped to
// bound, oldest event first.
func (r *eventRing) grow() {
	size := min(max(2*len(r.buf), minRingGrowth), r.bound)
	buf := make([]BusEvent, size)
	copy(buf, r.buf[r.head:])
	copy(buf[len(r.buf)-r.head:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}

// pop removes and returns the oldest event, clearing its slot so the
// ring keeps no reference to the event's attributes.
func (r *eventRing) pop() (ev BusEvent, ok bool) {
	if r.n == 0 {
		return BusEvent{}, false
	}
	ev = r.buf[r.head]
	r.buf[r.head] = BusEvent{}
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return ev, true
}

// at returns the i-th oldest event, 0 <= i < r.n.
func (r *eventRing) at(i int) BusEvent { return r.buf[(r.head+i)%len(r.buf)] }

// events returns a copy of the ring's events, oldest first.
func (r *eventRing) events() []BusEvent {
	out := make([]BusEvent, r.n)
	for i := range out {
		out[i] = r.at(i)
	}
	return out
}
