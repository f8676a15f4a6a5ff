package script_test

import (
	"fmt"
	"os"

	"repro/internal/script"
)

// ExampleCompile shows basic chunk evaluation: a host compiles a
// script once and runs the chunk on an interpreter as often as it likes.
func ExampleCompile() {
	chunk, err := script.Compile(`
		local total = 0
		for i = 1, 10 do total = total + i end
		print("total:", total)
		return total
	`)
	if err != nil {
		panic(err)
	}
	vals, err := chunk.Run(script.New(script.WithStdout(os.Stdout)))
	if err != nil {
		panic(err)
	}
	fmt.Println("returned:", vals[0])
	// Output:
	// total:	55
	// returned: 55
}

// ExampleInterp_Call shows the host-callback pattern Mantle uses: the
// script defines a policy predicate; the host calls it per tick.
func ExampleInterp_Call() {
	ip := script.New()
	chunk, err := script.Compile(`function when(load, avg) return load > avg * 1.2 end`)
	if err != nil {
		panic(err)
	}
	if _, err := chunk.Run(ip); err != nil {
		panic(err)
	}
	when := ip.Global("when")
	for _, load := range []float64{90, 150} {
		rs, err := ip.Call(when, load, 100.0)
		if err != nil {
			panic(err)
		}
		fmt.Printf("load=%v migrate=%v\n", load, script.Truthy(rs[0]))
	}
	// Output:
	// load=90 migrate=false
	// load=150 migrate=true
}

// ExampleTable shows host-side table construction, the way daemons pass
// metrics into policies.
func ExampleTable() {
	metrics := script.NewTable()
	metrics.Set("load", 42.5) //nolint:errcheck
	metrics.Set("rank", 3.0)  //nolint:errcheck

	ip := script.New()
	ip.SetGlobal("mds", metrics)
	chunk, err := script.Compile(`return mds["load"] / 2, mds.rank + 1`)
	if err != nil {
		panic(err)
	}
	vals, err := chunk.Run(ip)
	if err != nil {
		panic(err)
	}
	fmt.Println(vals[0], vals[1])
	// Output:
	// 21.25 4
}

// ExampleWithBudget shows the sandbox cutting off a runaway policy.
func ExampleWithBudget() {
	chunk, err := script.Compile(`while true do end`)
	if err != nil {
		panic(err)
	}
	_, err = chunk.Run(script.New(script.WithBudget(1000)))
	fmt.Println(err != nil)
	// Output:
	// true
}
