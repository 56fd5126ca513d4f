package clc

// Test-only hooks for the external clc_test package.

// SetOptDebugPanic makes optimizer panics propagate (see optDebugPanic)
// until the returned restore func runs.
func SetOptDebugPanic(on bool) (restore func()) {
	old := optDebugPanic
	optDebugPanic = on
	return func() { optDebugPanic = old }
}

// OptimizerSweeps optimizes the kernel's raw bytecode again and
// reports how many backward sweeps over its blocks liveness took.
func OptimizerSweeps(k *KernelDecl) int {
	o := newOptimizer(k, k.bytecode())
	o.run()
	return o.sweeps
}
