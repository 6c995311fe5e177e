package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// CallGraph is a CHA-style (class-hierarchy analysis) callgraph over
// every function and method declared in the loaded packages. Static
// calls resolve through the type checker; a call through an interface
// method conservatively fans out to that method on every declared
// concrete type implementing the interface. Calls through plain
// function values are unresolved and produce no edge — the soundness
// cost is documented in DESIGN.md §12.
type CallGraph struct {
	// ByFunc indexes nodes by their *types.Func object.
	ByFunc map[*types.Func]*CallNode
	// Nodes lists every node in file-position order, the iteration
	// order all deterministic consumers use.
	Nodes []*CallNode
}

// A CallNode is one declared function or method with a body. Function
// literals are not nodes of their own: calls inside a literal are
// attributed to the enclosing declaration, which is how a summary of
// "what may run when f is invoked" stays whole.
type CallNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Out lists call edges in source order.
	Out []*CallEdge
}

// Name returns the node's diagnostic name: "pkg.Func" or
// "pkg.(*Recv).Method" as rendered by types.Func.
func (n *CallNode) Name() string {
	if n.Fn.Pkg() == nil {
		return n.Fn.Name()
	}
	return n.Fn.Pkg().Name() + "." + funcRecvPrefix(n.Fn) + n.Fn.Name()
}

func funcRecvPrefix(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name() + "."
	}
	return ""
}

// A CallEdge records one resolved call site.
type CallEdge struct {
	Caller *CallNode
	Callee *CallNode
	Site   *ast.CallExpr
	// Dynamic marks edges resolved by CHA through an interface
	// method — possible, not proven, targets.
	Dynamic bool
}

// buildCallGraph constructs the graph: index declared functions, then
// resolve every call site in every body.
func buildCallGraph(prog *Program) *CallGraph {
	cg := &CallGraph{ByFunc: make(map[*types.Func]*CallNode)}
	for _, pkg := range prog.Pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &CallNode{Fn: fn, Decl: fd, Pkg: pkg}
				cg.ByFunc[fn] = n
				cg.Nodes = append(cg.Nodes, n)
			}
		}
	}
	sort.Slice(cg.Nodes, func(i, j int) bool {
		pi := prog.Fset.Position(cg.Nodes[i].Decl.Pos())
		pj := prog.Fset.Position(cg.Nodes[j].Decl.Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Offset < pj.Offset
	})

	concrete := concreteTypes(prog)
	for _, n := range cg.Nodes {
		info := n.Pkg.Info
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, callee := range resolveCallees(info, call, cg, concrete) {
				n.Out = append(n.Out, &CallEdge{
					Caller:  n,
					Callee:  callee.node,
					Site:    call,
					Dynamic: callee.dynamic,
				})
			}
			return true
		})
	}
	return cg
}

type resolved struct {
	node    *CallNode
	dynamic bool
}

// resolveCallees maps one call expression to its possible callees
// among the program's declared functions.
func resolveCallees(info *types.Info, call *ast.CallExpr, cg *CallGraph, concrete []types.Type) []resolved {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			if n := cg.ByFunc[fn]; n != nil {
				return []resolved{{n, false}}
			}
		}
	case *ast.SelectorExpr:
		fn, ok := info.Uses[fun.Sel].(*types.Func)
		if !ok {
			return nil
		}
		sig, ok := fn.Type().(*types.Signature)
		if ok && sig.Recv() != nil {
			if iface, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
				return chaTargets(fn, iface, cg, concrete)
			}
		}
		if n := cg.ByFunc[fn]; n != nil {
			return []resolved{{n, false}}
		}
	}
	return nil
}

// chaTargets fans an interface method call out to the matching method
// on every declared concrete type implementing the interface.
func chaTargets(m *types.Func, iface *types.Interface, cg *CallGraph, concrete []types.Type) []resolved {
	var out []resolved
	for _, t := range concrete {
		pt := types.NewPointer(t)
		if !types.Implements(t, iface) && !types.Implements(pt, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(pt, true, m.Pkg(), m.Name())
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		// Origin strips any instantiation so the lookup hits the
		// declared method the graph indexed.
		if n := cg.ByFunc[fn.Origin()]; n != nil {
			out = append(out, resolved{n, true})
		}
	}
	return out
}

// concreteTypes collects every non-interface named type declared at
// package scope across the program — the CHA "class hierarchy". The
// result is deterministic: packages in load order, names sorted.
func concreteTypes(prog *Program) []types.Type {
	var out []types.Type
	for _, pkg := range prog.Pkgs {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		names := scope.Names()
		sort.Strings(names)
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			t := tn.Type()
			if _, ok := t.Underlying().(*types.Interface); ok {
				continue
			}
			out = append(out, t)
		}
	}
	return out
}

// SCCs returns the graph's strongly connected components in bottom-up
// (callees-before-callers) order — the order a summary-composing
// analyzer processes them so every callee's fact exists before its
// callers ask for it. Tarjan's algorithm emits components in exactly
// this order.
func (cg *CallGraph) SCCs() [][]*CallNode {
	index := make(map[*CallNode]int, len(cg.Nodes))
	low := make(map[*CallNode]int, len(cg.Nodes))
	onStack := make(map[*CallNode]bool, len(cg.Nodes))
	var stack []*CallNode
	var sccs [][]*CallNode
	next := 0

	var strongconnect func(n *CallNode)
	strongconnect = func(n *CallNode) {
		index[n] = next
		low[n] = next
		next++
		stack = append(stack, n)
		onStack[n] = true
		for _, e := range n.Out {
			m := e.Callee
			if _, seen := index[m]; !seen {
				strongconnect(m)
				if low[m] < low[n] {
					low[n] = low[m]
				}
			} else if onStack[m] && index[m] < low[n] {
				low[n] = index[m]
			}
		}
		if low[n] == index[n] {
			var scc []*CallNode
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[m] = false
				scc = append(scc, m)
				if m == n {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, n := range cg.Nodes {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}
	return sccs
}
