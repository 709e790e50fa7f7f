package serve

import (
	"encoding/json"
	"testing"

	"heracles/internal/engine"
)

// FuzzScenarioSpec feeds arbitrary bytes to the scenario JSON codec: the
// body of POST /api/v1/instances/{id}/scenario and the scenario of a
// create or restore request. Whatever decodes, Build either refuses it or
// yields a scenario that a live instance's one-node engine installs and
// steps — never a panic. The seeds are the bodies the serve tests post,
// the API.md example, and the diurnal horizons past the duration bound
// (1e12 s once panicked in makeslice; a week and a second builds 600k
// trace points without the bound).
func FuzzScenarioSpec(f *testing.F) {
	migration, err := json.Marshal(migrationSpec(SpeedMax).Scenario)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(migration)
	for _, body := range []string{
		`{"duration_s":1e12,"load":{"kind":"diurnal","min_load":0.2,"max_load":0.6}}`,
		`{"duration_s":604801,"load":{"kind":"diurnal","min_load":0.2,"max_load":0.6}}`,
		`{"name":"steps","duration_s":30,"load":{"kind":"steps","levels":[{"at_s":0,"load":0.3},{"at_s":15,"load":0.6}]},"events":[{"at_s":10,"kind":"slo-scale","factor":0.9}]}`,
		`{"name":"ramp","duration_s":120,"load":{"kind":"ramp","from":0.2,"to":0.8,"end_s":100}}`,
		`{"name":"det","duration_s":200,"load":{"kind":"sum","terms":[{"kind":"flat","value":0.35},{"kind":"flashcrowd","start_s":80,"rise_s":20,"hold_s":20,"fall_s":20,"amp":0.5}]},"events":[{"at_s":0,"kind":"be-arrive","workload":"streetview"},{"at_s":1,"kind":"slo-scale","factor":0.7},{"at_s":2,"kind":"be-depart","workload":"streetview"}]}`,
		`{"name":"diurnal+flashcrowd","duration_s":1800,"load":{"kind":"sum","terms":[{"kind":"diurnal","min_load":0.2,"max_load":0.6,"seed":42},{"kind":"flashcrowd","start_s":1200,"rise_s":120,"hold_s":60,"fall_s":90,"amp":0.3}],"clamp":{"lo":0,"hi":0.88}},"events":[{"at_s":0,"kind":"leaf-degrade","factor":1.3},{"at_s":1,"kind":"load-scale","factor":1.1}]}`,
		`{"duration_s":-1}`,
	} {
		f.Add([]byte(body))
	}

	cfg := engineConfig(testLab, "websearch")
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec ScenarioSpec
		if json.Unmarshal(body, &spec) != nil {
			return
		}
		sc, err := spec.Build()
		if err != nil {
			return
		}
		e := engine.New(cfg)
		defer e.Close()
		e.InstallScenario(sc)
		for range 4 {
			e.Step()
		}
	})
}
