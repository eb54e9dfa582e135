package lint

import "testing"

// The retired fsmconform rule's audit (DESIGN.md §6). Each test below is
// named after the rule's own test of one check and runs, as mutation
// rows, the changes that check flagged: each must fail the core or fault
// test that holds the claim now.

// setLockHead is the text from the end of lockStep's switch to the first
// line of setLock's body.
const setLockHead = `
	return false
}

// setLock moves the lock machine for the subsession on this session's
// right. A self-step is a no-op; an undeclared step is a protocol bug and
// panics.
func (s *Session) setLock(to LockState) {
`

// lockStringHead is the text from the last lock state to the last case
// of LockState.String.
const lockStringHead = `	Locked
)

func (s LockState) String() string {
	switch s {
	case Unlocked:
		return "unlocked"
	case LockPending:
		return "lockPending"
	case Locked:
		return "locked"
`

// Check 1: the enum's states are the model's. A named state past the
// model's last one breaks the pair test's length join.
func TestConformanceFlagsExtraState(t *testing.T) {
	runMutations(t, []mutation{
		{"fsmconform", "internal/core/session.go", lockStringHead,
			"\tLocked\n\tFrozen\n" + lockStringHead[len("\tLocked\n"):] + "\tcase Frozen:\n\t\treturn \"frozen\"\n",
			pkgCore, "TestStepTablesMatchModel"},
	})
}

// Check 2, one way: a step the model does not declare, on the pair test
// and on a step that every release of a held lock then takes in the
// sweep, where the transition oracle flags it.
func TestConformanceFlagsAddedTransition(t *testing.T) {
	runMutations(t, []mutation{
		{"fsmconform", "internal/core/fsm.go", "\t\treturn to == LockPending\n", "\t\treturn to == LockPending || to == Locked\n",
			pkgCore, "TestStepTablesMatchModel"},
		{"fsmconform", "internal/core/fsm.go",
			"return to == Unlocked\n\t}" + setLockHead,
			"return to == Unlocked || to == LockPending\n\t}" + setLockHead +
				"\tif to == Unlocked && s.lockState == Locked {\n\t\ts.setLock(LockPending)\n\t}\n",
			pkgFault, "TestSweep"},
	})
}

// Check 2, the other way: a model edge the step function rejects.
func TestConformanceFlagsRemovedTransition(t *testing.T) {
	runMutations(t, []mutation{
		{"fsmconform", "internal/core/fsm.go", "return to == RcSettingUp || to == RcFailed", "return to == RcSettingUp",
			pkgCore, "TestStepTablesMatchModel"},
	})
}

// Check 3, the funnel: writes around the setter, at a reset only core's
// tests reach and at the one call site no test ran before its
// contention test.
func TestConformanceFlagsRawFieldWrite(t *testing.T) {
	runMutations(t, []mutation{
		{"fsmconform", "internal/core/daemon.go", "sess.lockState != Unlocked {\n\t\tsess.setLock(Unlocked)", "sess.lockState != Unlocked {\n\t\tsess.lockState = Unlocked",
			pkgCore, "TestStateFieldsHaveOneWriter"},
		{"fsmconform", "internal/core/daemon.go", "lockSess.setLock(Unlocked)\n\t\td.processBlocked(lockSess)", "lockSess.lockState = Unlocked\n\t\td.processBlocked(lockSess)",
			pkgCore, "TestContentionNackResetsMidPathLock"},
	})
}

// Check 3, births: an attempt born outside the model's initial states.
func TestConformanceFlagsNonInitialBirth(t *testing.T) {
	runMutations(t, []mutation{
		{"fsmconform", "internal/core/daemon.go", "rcState:   RcLocking,", "rcState:   RcTwoPath,",
			pkgCore, "TestStateFieldsHaveOneWriter"},
	})
}

// Check 4: a setter call from a source state the model does not allow,
// which the setter's panic stops in every test that runs the call site.
func TestConformanceFlagsMisguardedSetterCall(t *testing.T) {
	runMutations(t, []mutation{
		{"fsmconform", "internal/core/daemon.go", "sess.setLock(LockPending)\n\trc := &Reconfig{", "sess.setLock(Locked)\n\trc := &Reconfig{",
			pkgCore, "TestReconfigDeleteMiddlebox"},
	})
}
