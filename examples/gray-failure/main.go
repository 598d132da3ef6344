// The gray-failure example runs the paper's Figure 16 use case: hosts
// emit 1µs heartbeats, one silently stops (a gray failure: the link
// stays up), and the Mantis reaction detects the dip against the
// delta = floor(eta*Td/Ts) threshold and reroutes within 100-200µs.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/usecases"
)

func main() {
	fmt.Println("T_s = 1µs heartbeats on ports 2-5; gray failure on port 3 at t=500µs")
	for _, td := range []time.Duration{20 * time.Microsecond, 50 * time.Microsecond, 200 * time.Microsecond} {
		res, err := usecases.RunFig16(1, 3, 500*time.Microsecond, td, 0.5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  T_d=%-6v detected=%v rerouted in %v (false positives: %d)\n",
			td, res.Detected, res.ReactionTime, res.FalsePositives)
	}
}
