package distrib

import (
	"encoding/json"
	"errors"
	"fmt"
)

// TraceMeta is the deployment meta embedded in every trace: the whole Job,
// so the trace tooling can recompile the exact executive that was traced
// (SpecFromMeta) and diff measured timings against the predicted schedule.
// The key is "spec" because serve tags its traces' "job" with the job id.
func (sp Spec) TraceMeta() map[string]string {
	spec, _ := json.Marshal(sp.Job) // a struct of scalars cannot fail to marshal
	return map[string]string{"app": "tracking", "spec": string(spec)}
}

// SpecFromMeta reconstructs the deployment spec a trace was recorded under.
func SpecFromMeta(meta map[string]string) (Spec, error) {
	var sp Spec
	if len(meta) == 0 {
		return sp, errors.New("distrib: trace carries no deployment meta")
	}
	if app := meta["app"]; app != "tracking" {
		return sp, fmt.Errorf("distrib: trace meta names unknown app %q", app)
	}
	if err := json.Unmarshal([]byte(meta["spec"]), &sp.Job); err != nil {
		return sp, fmt.Errorf("distrib: trace meta spec: %w", err)
	}
	return sp, nil
}
