// Reliability drill: what happens when chargers break down?
//
// A maintenance window takes the base-station charger offline for a
// third of the monitoring period, and a second vehicle fails for an
// overlapping stretch. The MinTotalDistance-var policy detects each
// depot-set change, re-plans around the missing vehicles, and keeps
// every sensor alive; a health trace (min/mean residual energy over
// time) is written as SVG evidence.
//
// Run with:
//
//	go run ./examples/reliability
package main

import (
	"fmt"
	"log"
	"os"

	"repro"
)

func main() {
	net, err := repro.Generate(repro.NewRand(77), repro.GenConfig{
		N: 120, Q: 4,
		Dist: repro.LinearDist{TauMin: 3, TauMax: 36, Sigma: 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	const T = 300
	outages := []repro.ChargerOutage{
		{Depot: 0, From: 100, To: 200}, // the base-station charger
		{Depot: 2, From: 180, To: 240},
	}
	fmt.Printf("%d sensors, %d chargers, T=%d\n", net.N(), net.Q(), T)
	fmt.Println("outages: depot 0 down [100,200), depot 2 down [180,240)")

	tracer := repro.NewTracer(&repro.VarPolicy{})
	res, err := repro.Simulate(net, repro.NewFixedModel(net), tracer, repro.SimConfig{
		T: T, Dt: 1, Outages: outages,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nservice cost: %.0f m over %d dispatches (%d sensor charges)\n",
		res.Cost(), res.Schedule.Dispatches(), res.Charges)
	if res.Deaths == 0 {
		fmt.Println("no sensor died — the fleet absorbed both outages")
	} else {
		fmt.Printf("%d deaths, first at t=%.0f\n", res.Deaths, res.FirstDeath)
	}
	margin, err := tracer.MinSafetyMargin()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("worst residual-energy margin: %.1f%% of capacity\n", 100*margin)

	// Fleet workload: who carried the outage load?
	fmt.Println("\nfleet workload (depot indices are metric-space IDs):")
	fmt.Println(res.Schedule.Fleet())

	// Evidence artifact.
	out := "reliability_trace.svg"
	f, err := os.Create(out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := repro.WriteTraceSVG(f, tracer.Trace(), "network health under charger outages"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote health trace to %s\n", out)
}
