// Command avivsim loads a binary object produced by avivcc -o and runs it
// on the instruction-level simulator (the right-hand side of the paper's
// Fig. 1 flow).
//
//	avivsim -march machine.isdl -mem "a=3,b=4" prog.avob
//	avivsim -example prog.avob
//
// Exit codes (so CI and scripts can gate on the simulator): 0 success,
// 1 usage or I/O error, 2 the program failed to decode/parse or was
// rejected by the static verifier, 3 the simulator trapped.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"aviv/internal/asm"
	"aviv/internal/isdl"
	"aviv/internal/sim"
	"aviv/internal/verify"
)

// Exit codes.
const (
	exitUsage  = 1 // bad flags, unreadable files
	exitDecode = 2 // object/assembly rejected at load or by the verifier
	exitTrap   = 3 // simulator trapped at run time
)

func main() {
	march := flag.String("march", "", "path to the ISDL machine description")
	example := flag.Bool("example", false, "use the paper's example architecture")
	regs := flag.Int("regs", 4, "registers per file for -example")
	memFlag := flag.String("mem", "", "initial data memory, e.g. \"a=3,b=4\"")
	trace := flag.Bool("trace", false, "trace executed instructions")
	maxCycles := flag.Int("max-cycles", 0, "cycle budget (0 = default)")
	disasm := flag.Bool("d", false, "disassemble instead of running")
	asmText := flag.Bool("asm", false, "input is assembly text rather than a binary object")
	assembleTo := flag.String("o", "", "with -asm: assemble to this binary object instead of running")
	verifyFlag := flag.Bool("verify", false, "statically verify the loaded program against the machine before running")
	flag.Parse()

	dieCode := func(code int, err error) {
		fmt.Fprintln(os.Stderr, "avivsim:", err)
		os.Exit(code)
	}
	die := func(err error) { dieCode(exitUsage, err) }

	var machine *isdl.Machine
	switch {
	case *example:
		machine = isdl.ExampleArchFull(*regs)
	case *march != "":
		src, err := os.ReadFile(*march)
		if err != nil {
			die(err)
		}
		machine, err = isdl.Parse(string(src))
		if err != nil {
			die(err)
		}
	default:
		die(fmt.Errorf("need -march <file> or -example"))
	}
	if flag.NArg() != 1 {
		die(fmt.Errorf("need exactly one object file"))
	}
	obj, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		die(err)
	}
	var prog *asm.Program
	if *asmText || strings.HasSuffix(flag.Arg(0), ".s") {
		prog, err = asm.ParseProgram(string(obj), machine)
	} else {
		prog, err = asm.Decode(obj, machine)
	}
	if err != nil {
		dieCode(exitDecode, err)
	}
	if *verifyFlag {
		if verr := verify.Program(prog, nil); verr != nil {
			dieCode(exitDecode, verr)
		}
	}
	if *assembleTo != "" {
		obj, err := asm.Encode(prog)
		if err != nil {
			die(err)
		}
		if err := os.WriteFile(*assembleTo, obj, 0o644); err != nil {
			die(err)
		}
		fmt.Fprintf(os.Stderr, "avivsim: assembled %s\n", *assembleTo)
		return
	}
	if *disasm {
		fmt.Print(prog.String())
		return
	}

	mem := map[string]int64{}
	if *memFlag != "" {
		for _, kv := range strings.Split(*memFlag, ",") {
			parts := strings.SplitN(strings.TrimSpace(kv), "=", 2)
			if len(parts) != 2 {
				die(fmt.Errorf("bad -mem entry %q", kv))
			}
			v, err := strconv.ParseInt(parts[1], 10, 64)
			if err != nil {
				die(err)
			}
			mem[parts[0]] = v
		}
	}
	m := sim.New(prog, mem)
	if *trace {
		m.TraceFn = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	if err := m.Run(*maxCycles); err != nil {
		dieCode(exitTrap, err)
	}
	fmt.Printf("halted after %d cycles\n", m.Cycles)
	final := m.Mem()
	keys := make([]string, 0, len(final))
	for k := range final {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("mem[%s] = %d\n", k, final[k])
	}
}
