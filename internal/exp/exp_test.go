package exp_test

import (
	"strings"
	"testing"

	"repro/internal/exp"
)

// tinyScale keeps the smoke tests to seconds.
func tinyScale() exp.Scale { return exp.Scale{Time: 10, Sessions: 20, Label: "tiny"} }

func TestVerifyExperiment(t *testing.T) {
	r := exp.Verify()
	if !r.Passed() {
		t.Fatalf("verification failed:\n%s", r.String())
	}
	if len(r.Checks) < 14 {
		t.Errorf("expected ≥14 verification checks, got %d", len(r.Checks))
	}
}

func TestFig8Experiment(t *testing.T) {
	r, err := exp.Run("fig8", tinyScale(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed() {
		t.Fatalf("fig8 checks failed:\n%s", r.String())
	}
}

func TestAblationStateExperiment(t *testing.T) {
	r, err := exp.Run("ablation-state", tinyScale(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed() {
		t.Fatalf("ablation-state failed:\n%s", r.String())
	}
}

func TestAblationEncapExperiment(t *testing.T) {
	r, err := exp.Run("ablation-encap", tinyScale(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed() {
		t.Fatalf("ablation-encap failed:\n%s", r.String())
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := exp.Run("nope", exp.QuickScale(), 1); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

func TestResultRendering(t *testing.T) {
	r, err := exp.Run("ablation-state", tinyScale(), 42)
	if err != nil {
		t.Fatal(err)
	}
	out := r.String()
	for _, want := range []string{"====", "check [PASS]", "note:"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered result missing %q:\n%s", want, out)
		}
	}
}

func TestAllListsEveryExperiment(t *testing.T) {
	ids := exp.All()
	if len(ids) < 12 {
		t.Fatalf("All() lists %d experiments", len(ids))
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate id %q", id)
		}
		seen[id] = true
	}
	for _, must := range []string{"fig8", "fig9", "fig10", "fig12", "fig13", "fig14", "fig15", "verify"} {
		if !seen[must] {
			t.Errorf("missing %q", must)
		}
	}
}
