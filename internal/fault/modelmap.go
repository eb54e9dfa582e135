package fault

// Coverage ties one fault-plan primitive to the verification model
// (internal/model). The paper model-checked the protocol under all
// message delays and scheduling decisions (§3.7); faults the simulator
// can inject either fall inside that explored space (ModelFault names
// the class) or sit below the model's abstraction level (ImplOnly, with
// the reason). The conformance test asserts the mapping is total: a new
// OpKind cannot land without declaring its relationship to the model.
type Coverage struct {
	Op OpKind
	// ModelFault is the internal/model fault class whose state-space
	// exploration subsumes this primitive; empty when ImplOnly.
	ModelFault string
	// ImplOnly marks primitives the abstract model deliberately omits;
	// the end-to-end harness is their only coverage.
	ImplOnly bool
	// Why documents the subsumption or the reason for omission.
	Why string
}

// ModelCoverage returns one entry per OpKind, in kind order.
func ModelCoverage() []Coverage {
	return []Coverage{
		{
			Op: OpLinkDown, ImplOnly: true,
			Why: "the model's channels are reliable: transient unreachability is masked by " +
				"retransmission below the modeled layer (§4.1 reliable UDP), so only the " +
				"implementation's retransmit/timeout machinery can exercise it",
		},
		{
			Op: OpLinkLoss, ImplOnly: true,
			Why: "same as linkDown: loss is absorbed by control retransmission and TCP " +
				"recovery beneath the modeled protocol",
		},
		{
			Op: OpLinkDup, ModelFault: "dup-syn",
			Why: "duplicate delivery of control messages is explored by the chain model's " +
				"duplicate-SYN nondeterminism; the harness extends it to every packet",
		},
		{
			Op: OpLinkReorder, ModelFault: "message-interleaving",
			Why: "the checker's DFS already delivers pending messages in every order, which " +
				"strictly contains any bounded extra delay",
		},
		{
			Op: OpLinkCorrupt, ImplOnly: true,
			Why: "receive-side checksum verification degrades corruption to loss before any " +
				"modeled component can observe it",
		},
		{
			Op: OpPartition, ImplOnly: true,
			Why: "a sustained partition is bounded by LockTimeout/AttemptTimeout, which are " +
				"implementation liveness mechanisms outside the model's reliable-channel abstraction",
		},
		{
			Op: OpHostFreeze, ImplOnly: true,
			Why: "a frozen host is indistinguishable from sustained loss on its links; see linkDown",
		},
		{
			Op: OpHostCrash, ImplOnly: true,
			Why: "the model has no crash-recovery; the kernel/daemon state split that makes " +
				"restart safe (§4.1) is implementation behavior, exercised end-to-end instead",
		},
		{
			Op: OpCtrlDrop, ModelFault: "winner-cancels",
			Why: "dropping control messages forces the same §3.6 abort/cancel transitions the " +
				"model explores via WinnerCancels; the retransmission that precedes the abort " +
				"is implementation-only. A dropped oldPathFIN ends in the give-up the two-path " +
				"model explores as fin-give-up",
		},
		{
			Op: OpCtrlDelay, ModelFault: "message-interleaving",
			Why: "delaying one control message selects one of the delivery orders the checker " +
				"already enumerates",
		},
	}
}
