// Quickstart: compile the paper's running example — the Fig. 2 basic
// block out = (a+b) - (c*d) — for the Fig. 3 example VLIW architecture,
// print every intermediate artifact of the Fig. 1 flow, and validate the
// generated code on the instruction-level simulator.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"aviv"
	"aviv/internal/asm"
	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/sim"
)

func main() {
	// 1. The target processor, written in the ISDL-flavored description
	//    language (this is the paper's Fig. 3 machine).
	machine, err := aviv.LoadMachine(isdl.ExampleArchISDL)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== machine description and derived databases ===")
	fmt.Println(machine.Describe())

	// 2. The input basic block, built directly as an expression DAG
	//    (programs can also be compiled from mini-C source with
	//    aviv.CompileSource).
	bb := ir.NewBuilder("fig2")
	sum := bb.Add(bb.Load("a"), bb.Load("b"))
	prod := bb.Mul(bb.Load("c"), bb.Load("d"))
	bb.Store("out", bb.Sub(sum, prod))
	bb.Return()
	f := &ir.Func{Name: "quickstart", Blocks: []*ir.Block{bb.Finish()}}
	fmt.Println("=== input basic block DAG (Fig. 2) ===")
	fmt.Println(f)

	// 3. Compile: Split-Node DAG, concurrent covering, register
	//    allocation, peephole, emission.
	res, err := aviv.Compile(f, machine, aviv.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	br := res.Blocks[0]
	fmt.Println("=== Split-Node DAG (Fig. 4) ===")
	fmt.Println(br.Covering.DAG.Describe())
	fmt.Printf("=== covering solution: %d instructions, %d spills (paper Table I Ex1: 7) ===\n",
		br.Solution.Cost(), br.Solution.SpillCount)
	fmt.Println(br.Solution)
	fmt.Println("=== assembly ===")
	fmt.Println(res.Program)

	// 4. Assemble to a binary object and execute it on the simulator.
	obj := asm.Encode(res.Program)
	prog, err := asm.Decode(obj, machine)
	if err != nil {
		log.Fatal(err)
	}
	mem := map[string]int64{"a": 10, "b": 32, "c": 6, "d": 7}
	final, cycles, err := sim.RunProgram(prog, mem, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("=== simulation: %d cycles, out = %d (want (10+32)-(6*7) = 0) ===\n",
		cycles, final["out"])
	if final["out"] != 0 {
		log.Fatal("simulation result mismatch")
	}
}
