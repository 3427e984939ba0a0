package snn_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/snn"
)

// TestAppsMatchFrozenLayout builds every registered application and holds
// the graph its simulator exports to the frozen simulator's layout on the
// same network and inputs.
func TestAppsMatchFrozenLayout(t *testing.T) {
	var captured *snn.Sim
	snn.SetExportHook(func(s *snn.Sim) { captured = s })
	t.Cleanup(func() { snn.SetExportHook(nil) })
	for _, name := range apps.Names() {
		captured = nil
		app, err := apps.Build(name, apps.Config{Seed: 3, DurationMs: 300})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if captured == nil {
			t.Fatalf("%s: built without exporting a simulator's graph", name)
		}
		snn.CheckFrozen(t, captured, app.Graph)
	}
}
