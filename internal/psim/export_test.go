package psim

import (
	"time"

	"tcppr/internal/sim"
)

// RunCity builds and runs one city cell, timing the run loop.
func RunCity(cfg CityRun) CityResult {
	cfg.fill()
	eng, st := BuildCity(cfg)
	t0 := time.Now()
	eng.Run(sim.Time(cfg.Horizon))
	return st.Finish(time.Since(t0))
}
