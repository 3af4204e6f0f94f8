package pins

// The db layer's withPlan form: one helper pins, installs the deferred
// release, and lends the handle to a callback for the duration of the
// call. The pin never leaves the helper, so the proof is local to it.

func plan(v *Snapshot) (int, error) { return v.Rows(), nil }

// --- legal ---

// The handle is lent to fn under a deferred release; bookkeeping between
// the acquisition and its error check, and early returns after the defer,
// do not open a leaking path.
func legalWithPlan(e *Engine, traced bool, fn func(*Snapshot, int) error) error {
	spans := 0
	v, err := e.Acquire()
	if traced {
		spans++
	}
	if err != nil {
		return err
	}
	defer v.Release()
	n, err := plan(v)
	if err != nil {
		return err
	}
	return fn(v, n+spans)
}

// A caller's closure captures results, not the pin: nothing to prove there.
func legalWithPlanCaller(e *Engine) (int, error) {
	rows := 0
	err := legalWithPlan(e, false, func(v *Snapshot, n int) error {
		rows = v.Rows() + n
		return nil
	})
	return rows, err
}

// --- violations ---

// A pin taken inside the callback is the callback's to release: the lent
// handle's deferred release in the helper does not cover it.
func callbackLeaksItsOwnPin(e *Engine) error {
	return legalWithPlan(e, false, func(_ *Snapshot, n int) error {
		inner, err := e.Acquire() // want `not released on every path`
		if err != nil {
			return err
		}
		if n < 0 {
			return nil // leaks: inner is never released on this branch
		}
		inner.Release()
		return nil
	})
}
