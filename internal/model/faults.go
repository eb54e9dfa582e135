package model

// ModeledFault names one fault class the exhaustive checker explores.
// The paper's Promela model covers "all possible network delays and
// scheduling decisions" (§3.7); this list makes the Go checker's
// equivalent coverage explicit so internal/fault can prove (by the
// conformance test there) that every end-to-end fault-plan primitive is
// either subsumed by one of these classes or documented as below the
// model's abstraction level.
type ModeledFault struct {
	Name        string
	Description string
}

// ModeledFaults returns the fault classes the checker's state-space
// exploration covers, in stable order.
func ModeledFaults() []ModeledFault {
	return []ModeledFault{
		{
			Name: "message-interleaving",
			Description: "the DFS delivers pending messages in every possible order, " +
				"covering arbitrary delay and reordering of control messages",
		},
		{
			Name:        "lock-contention",
			Description: "multiple left anchors request overlapping segments concurrently (P1; LockConfig.Requests)",
		},
		{
			Name: "winner-cancels",
			Description: "the winning left anchor immediately cancels its lock, forcing the " +
				"§3.6 abort/cancel path at every hop (LockConfig.WinnerCancels)",
		},
		{
			Name: "dup-syn",
			Description: "the client retransmits its session SYN, checking duplicate control " +
				"messages create no duplicate state (ChainConfig.DupSYN)",
		},
		{
			Name: "switch-timing",
			Description: "the two-path switch is explored at every position in the stream " +
				"(TwoPathConfig.SwitchAfterMin and the switch nondeterminism in Next)",
		},
		{
			Name: "fin-give-up",
			Description: "an anchor whose peer's oldPathFIN is late (lost, or held behind a draining " +
				"proxy) gives up once the old path toward it is silent, explored at every such point; " +
				"with a terminating proxy the sender discards bytes still in flight (P6; TwoPathConfig.Terminating)",
		},
		{
			Name: "double-delta",
			Description: "checker self-test: the left anchor misapplies the §3.4 delta so the " +
				"P4 invariant must observably fail (TwoPathConfig.BugDoubleDelta)",
		},
		{
			Name: "early-give-up",
			Description: "checker self-test: the FIN give-up counts every retry, silent or not, so the " +
				"P6 invariant must observably fail (TwoPathConfig.BugGiveUpAnyTime)",
		},
	}
}
