package experiments

import (
	"time"

	"tcppr/internal/runobs"
	"tcppr/internal/workload"
)

// RunExtComparison runs the Fig 6 multipath comparison with the §2
// related-work schemes we additionally implemented (TCP-DOOR and Eifel)
// added to the protocol set, at the 10 ms link delay.
func RunExtComparison(d Durations, obs *runobs.Session) Fig6Result {
	return RunFig6(Fig6Config{
		Protocols: append(workload.Fig6Protocols(), workload.TCPDOOR, workload.Eifel),
		Epsilons:  []float64{0, 1, 4, 10, 500},
		LinkDelays: []time.Duration{
			10 * time.Millisecond,
		},
		Durations:  d,
		Obs:        obs,
		experiment: "ext-door",
	})
}
