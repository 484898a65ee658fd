// Package resfx is the resource-rule fixture: acquire/release pairing and
// latch publication must hold on every path out, panic edges included.
// The test rescopes Config.Scopes["resource"] onto this package and declares
// pool.Get/GetErr -> Put (or conn.Close) as the resource protocol and
// latch{} -> publish/close(done) as the latch protocol.
package resfx

type conn struct{ live bool }

func (c *conn) Close() { c.live = false }

type pool struct{ free []*conn }

func (p *pool) Get() *conn             { return &conn{live: true} }
func (p *pool) GetErr() (*conn, error) { return &conn{live: true}, nil }
func (p *pool) Put(c *conn)            { p.free = append(p.free, c) }

func use(c *conn)      {}
func work(c *conn) int { return 1 }

// balanced: acquire and release on the only path.
func balanced(p *pool) {
	c := p.Get()
	use(c)
	p.Put(c)
}

// leakOnEarlyReturn mirrors PR 9's leaked pooled Builder: one branch of
// the ladder returns without putting the builder back.
func leakOnEarlyReturn(p *pool, degraded bool) {
	c := p.Get() // want `conn bound to c does not reach a release on every path out \(an early return or fall-through escapes it\)`
	if degraded {
		return
	}
	use(c)
	p.Put(c)
}

// leakOnPanicEdge: the release is unreachable from the explicit panic.
func leakOnPanicEdge(p *pool, n int) {
	c := p.Get() // want `conn bound to c does not reach a release on every path out \(a panic edge escapes it\)`
	if n < 0 {
		panic("negative budget")
	}
	use(c)
	p.Put(c)
}

// deferredClose is credited on every exit, panic edges included.
func deferredClose(p *pool, n int) {
	c := p.Get()
	defer c.Close()
	if n < 0 {
		panic("negative budget")
	}
	use(c)
}

// deferredPut: releasing through the pool in a deferred call also covers.
func deferredPut(p *pool, degraded bool) {
	c := p.Get()
	defer p.Put(c)
	if degraded {
		return
	}
	use(c)
}

// errWaiver: the branch taken when the acquiring call's error is non-nil
// has no resource to release.
func errWaiver(p *pool) (int, error) {
	c, err := p.GetErr()
	if err != nil {
		return 0, err
	}
	v := work(c)
	p.Put(c)
	return v, nil
}

// dropped discards the acquire result outright.
func dropped(p *pool) {
	p.Get() // want `result of conn acquire is discarded; the value can never be released`
}

type holder struct{ c *conn }

// storeTransfers: a field store hands ownership to the holder.
func storeTransfers(p *pool, h *holder) {
	c := p.Get()
	h.c = c
}

// returnTransfers: returning the value hands ownership to the caller.
func returnTransfers(p *pool) *conn {
	c := p.Get()
	return c
}

// literalTransfers: storing into a composite literal hands ownership on.
func literalTransfers(p *pool) *holder {
	c := p.Get()
	return &holder{c: c}
}

// latch mirrors the serve layer's singleflight fill latch.
type latch struct {
	done chan struct{}
	val  int
}

func (l *latch) publish(v int) {
	l.val = v
	close(l.done)
}

// publishEveryPath closes the latch before both returns.
func publishEveryPath(fast bool) *latch {
	l := &latch{done: make(chan struct{})}
	if fast {
		l.publish(1)
		return l
	}
	l.val = 2
	close(l.done)
	return l
}

// strandedLatch mirrors PR 9's stranded-waiter bug: the early return
// leaves the latch unpublished and every waiter parked forever.
func strandedLatch(fail bool) *latch {
	l := &latch{done: make(chan struct{})} // want `latch kdtune/internal/lint/testdata/src/resfx\.latch bound to l is not published on every path out \(an early return or fall-through escapes it\); waiters would strand`
	if fail {
		return nil
	}
	l.publish(1)
	return l
}

// strandedOnPanic: the worker body can panic before the publish.
func strandedOnPanic(n int) *latch {
	l := &latch{done: make(chan struct{})} // want `latch kdtune/internal/lint/testdata/src/resfx\.latch bound to l is not published on every path out \(a panic edge escapes it\); waiters would strand`
	if n < 0 {
		panic("negative budget")
	}
	l.publish(n)
	return l
}

// publishOnPanic is the sanctioned idiom from the serve layer: a deferred
// recover path publishes through a local closure, so no edge strands it.
func publishOnPanic(n int) *latch {
	l := &latch{done: make(chan struct{})}
	publish := func(v int) {
		l.val = v
		close(l.done)
	}
	defer func() {
		if r := recover(); r != nil {
			publish(-1)
		}
	}()
	if n < 0 {
		panic("negative budget")
	}
	publish(n)
	return l
}

// handoff: passing the latch to a callee transfers the publish duty.
func handoff(start func(*latch)) *latch {
	l := &latch{done: make(chan struct{})}
	start(l)
	return l
}
