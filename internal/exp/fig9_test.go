package exp

import (
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/tcp"
)

// TestFig9BaselineCrossesMiddlebox checks that Figure 9's baseline steers
// its traffic through the middlebox by IP routing: in a short bulk run the
// middlebox forwards packets and the central router sees none.
func TestFig9BaselineCrossesMiddlebox(t *testing.T) {
	ge := buildGoodputEnv(false, 1)
	for i, c := range ge.clients {
		s := ge.servers[i]
		app.NewSink(ge.env.Eng, time.Second).Serve(s.Stack, 5001)
		app.NewSource(c.Stack.Connect(s.Addr(), 5001, tcp.Config{}), 64<<10)
	}
	ge.env.RunFor(50 * time.Millisecond)
	if got := ge.mb.Host.Stats.Forwarded; got == 0 {
		t.Error("baseline middlebox forwarded no packets")
	}
	if got := ge.env.Router.Stats.PacketsIn; got != 0 {
		t.Errorf("baseline traffic crossed the router: %d packets in", got)
	}
}
