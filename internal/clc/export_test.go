package clc

// Test-only hooks for the external clc_test package.

// SetOptDebugPanic makes optimizer panics propagate (see optDebugPanic)
// until the returned restore func runs.
func SetOptDebugPanic(on bool) (restore func()) {
	old := optDebugPanic
	optDebugPanic = on
	return func() { optDebugPanic = old }
}

// OptimizerRounds reruns the optimizer's pass rounds over the kernel's
// raw bytecode and reports how many ran and whether they reached the
// fixpoint (false: maxRounds cut optimization short).
func OptimizerRounds(k *KernelDecl) (rounds int, converged bool) {
	return newOptimizer(k, k.bytecode()).rounds()
}
