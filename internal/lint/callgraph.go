package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// This file builds the interprocedural call graph the shardsafe analyzer
// walks to find the code that can execute inside a shard-parallel window
// (DESIGN.md §13). The graph is deliberately conservative: where a call
// target cannot be resolved statically it fans out to every plausible
// target, so "not window-reachable" is a proof and "window-reachable" is
// an over-approximation that an annotation can narrow.
//
// Nodes are function declarations and function literals. Edges come from
// four resolution rules:
//
//   - static: the callee resolves to a function or method declared in the
//     module;
//   - interface: a call through an interface method fans out to that
//     method on every module type (in a simulation package) implementing
//     the interface;
//   - indirect: a call through a func-typed value (field, variable,
//     parameter, call result) fans out to every address-taken function of
//     identical signature in a simulation package — this is how what a
//     shard engine dispatches (its fire function, the machine's fire
//     method value, and ClockedFunc adapters) stays in the graph;
//   - literal: a function literal is assumed callable whenever its
//     enclosing function runs.

// funcNode is one function declaration or literal in the call graph.
type funcNode struct {
	pkg  *Package
	obj  types.Object  // declared functions/methods; nil for literals
	decl *ast.FuncDecl // nil for literals
	lit  *ast.FuncLit  // nil for declarations
	sig  *types.Signature

	encl      *funcNode // for literals: the enclosing function node
	calls     map[*funcNode]bool
	addrTaken bool
	reachable bool
}

// name renders a human-readable identifier for diagnostics.
func (n *funcNode) name() string {
	if n.obj != nil {
		if sig, ok := n.obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			return types.TypeString(sig.Recv().Type(), types.RelativeTo(n.pkg.Types)) + "." + n.obj.Name()
		}
		return n.obj.Name()
	}
	if n.encl != nil {
		return n.encl.name() + ".func"
	}
	return "func literal"
}

// ifaceCall is an unresolved call through an interface method.
type ifaceCall struct {
	iface *types.Interface
	name  string
}

// callGraph is the module-wide graph plus the indexes dynamic resolution
// needs.
type callGraph struct {
	mod   *Module
	byObj map[types.Object]*funcNode
	byLit map[*ast.FuncLit]*funcNode
	nodes []*funcNode

	// bySig groups address-taken simulation-package functions by the
	// fully-qualified string of their signature, the indirect-call
	// fan-out set.
	bySig map[string][]*funcNode

	// pending dynamic calls per node, resolved once all nodes exist.
	ifaceCalls map[*funcNode][]ifaceCall
	sigCalls   map[*funcNode][]string

	// simNamed is every named type declared in a simulation package, the
	// interface-call fan-out universe.
	simNamed []*types.Named
}

// hostSidePackages are the internal packages that orchestrate simulations
// from the host side (worker pools, the HTTP service, this analyzer).
// They never run inside a shard window — each simulation they start is
// driven by machine code — so they are outside the shardsafe universe;
// the determinism analyzer already polices their goroutine spawns.
var hostSidePackages = map[string]bool{"core": true, "serve": true, "lint": true}

// simPackage reports whether pkg is a simulation package: internal/ and
// not host-side. Only simulation packages seed dynamic fan-out and are
// subject to the shardsafe concurrency-primitive ban.
func simPackage(mod *Module, pkg *Package) bool {
	if !pkg.Internal() {
		return false
	}
	return !hostSidePackages[internalBase(mod, pkg)]
}

// internalBase returns the first path segment under internal/ ("machine"
// for smtpsim/internal/machine), or "" for non-internal packages.
func internalBase(mod *Module, pkg *Package) string {
	_, rest, ok := strings.Cut(pkg.Path, "/internal/")
	if !ok {
		return ""
	}
	base, _, _ := strings.Cut(rest, "/")
	return base
}

// buildCallGraph indexes every function of the module and resolves its
// call edges.
func buildCallGraph(mod *Module) *callGraph {
	g := &callGraph{
		mod:        mod,
		byObj:      make(map[types.Object]*funcNode),
		byLit:      make(map[*ast.FuncLit]*funcNode),
		bySig:      make(map[string][]*funcNode),
		ifaceCalls: make(map[*funcNode][]ifaceCall),
		sigCalls:   make(map[*funcNode][]string),
	}
	// Pass 1: create a node per declaration and per literal, and collect
	// the named types of simulation packages.
	for _, pkg := range mod.Packages {
		if simPackage(mod, pkg) {
			scope := pkg.Types.Scope()
			for _, nm := range scope.Names() {
				if tn, ok := scope.Lookup(nm).(*types.TypeName); ok && !tn.IsAlias() {
					if named, ok := tn.Type().(*types.Named); ok {
						g.simNamed = append(g.simNamed, named)
					}
				}
			}
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj := pkg.Info.Defs[fd.Name]
				if obj == nil {
					continue
				}
				n := &funcNode{
					pkg: pkg, obj: obj, decl: fd,
					sig:   obj.Type().(*types.Signature),
					calls: make(map[*funcNode]bool),
				}
				g.byObj[obj] = n
				g.nodes = append(g.nodes, n)
			}
		}
	}
	// Pass 2: walk each declaration body, splitting literals into their
	// own nodes as they appear.
	for _, pkg := range mod.Packages {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					if n := g.byObj[pkg.Info.Defs[fd.Name]]; n != nil {
						g.walk(n, fd.Body)
					}
				} else if gd, ok := d.(*ast.GenDecl); ok {
					// Literals in package-level var initializers (handler
					// tables, callbacks) are address-taken with no
					// enclosing function.
					g.walkVarInit(pkg, gd)
				}
			}
		}
	}
	// Pass 3: resolve dynamic calls against the completed indexes.
	for n, calls := range g.ifaceCalls {
		for _, c := range calls {
			for _, named := range g.simNamed {
				target := ifaceMethodOn(named, c.iface, c.name)
				if target == nil {
					continue
				}
				if t := g.byObj[target]; t != nil {
					n.calls[t] = true
				}
			}
		}
	}
	for n, sigs := range g.sigCalls {
		for _, key := range sigs {
			for _, t := range g.bySig[key] {
				n.calls[t] = true
			}
		}
	}
	return g
}

// walkVarInit scans a package-level var declaration for function literals
// and references, attributing them to standalone nodes.
func (g *callGraph) walkVarInit(pkg *Package, gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, v := range vs.Values {
			g.scanRefs(nil, pkg, v)
		}
	}
}

// litNode returns (creating on first use) the node for a literal.
func (g *callGraph) litNode(encl *funcNode, pkg *Package, lit *ast.FuncLit) *funcNode {
	if n, ok := g.byLit[lit]; ok {
		return n
	}
	sig, _ := pkg.Info.TypeOf(lit).(*types.Signature)
	n := &funcNode{
		pkg: pkg, lit: lit, sig: sig, encl: encl,
		calls:     make(map[*funcNode]bool),
		addrTaken: true,
	}
	g.byLit[lit] = n
	g.nodes = append(g.nodes, n)
	if sig != nil && simPackage(g.mod, pkg) {
		key := sigKey(sig)
		g.bySig[key] = append(g.bySig[key], n)
	}
	g.walk(n, lit.Body)
	return n
}

// walk records the call edges and function references of one node's body,
// without descending into nested literals (each literal is its own node,
// linked by a literal edge).
func (g *callGraph) walk(n *funcNode, body *ast.BlockStmt) {
	pkg := n.pkg
	// Collect the set of expressions in callee position so references in
	// argument/value position can be told apart from direct calls.
	funPos := make(map[ast.Expr]bool)
	ast.Inspect(body, func(node ast.Node) bool {
		if call, ok := node.(*ast.CallExpr); ok {
			funPos[astUnparen(call.Fun)] = true
		}
		return true
	})
	var visit func(node ast.Node) bool
	visit = func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			lit := g.litNode(n, pkg, node)
			n.calls[lit] = true
			return false
		case *ast.CallExpr:
			g.recordCall(n, node)
			return true
		case *ast.SelectorExpr:
			if !funPos[node] {
				g.recordRef(n, pkg, node)
			}
			// Visit the base only: descending into Sel would misread every
			// direct method call as an address-taken method value.
			ast.Inspect(node.X, visit)
			return false
		case *ast.Ident:
			if !funPos[node] {
				g.recordRef(n, pkg, node)
			}
			return true
		}
		return true
	}
	ast.Inspect(body, visit)
}

// scanRefs records references and literals in an expression outside any
// function body (package-level initializers).
func (g *callGraph) scanRefs(encl *funcNode, pkg *Package, e ast.Expr) {
	var visit func(node ast.Node) bool
	visit = func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			g.litNode(encl, pkg, node)
			return false
		case *ast.SelectorExpr:
			g.recordRef(encl, pkg, node)
			ast.Inspect(node.X, visit)
			return false
		case *ast.Ident:
			g.recordRef(encl, pkg, node)
		}
		return true
	}
	ast.Inspect(e, visit)
}

// recordCall classifies one call expression into a static edge or a
// pending dynamic (interface / indirect) call.
func (g *callGraph) recordCall(n *funcNode, call *ast.CallExpr) {
	fun := astUnparen(call.Fun)
	// Type conversions are not calls.
	if tv, ok := n.pkg.Info.Types[fun]; ok && tv.IsType() {
		return
	}
	if obj := calleeObj(n.pkg.Info, call); obj != nil {
		if _, isBuiltin := obj.(*types.Builtin); isBuiltin {
			return
		}
		if t := g.byObj[obj]; t != nil {
			n.calls[t] = true
			return
		}
		// Unresolved by declaration: an interface method (no body to index)
		// falls through to interface fan-out, a func-typed var or field to
		// indirect resolution. Anything else is a function outside the
		// module (stdlib): no edge.
		ifaceMethod := false
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaceMethod = true
			}
		}
		_, isVar := obj.(*types.Var)
		if !isVar && !ifaceMethod {
			return
		}
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if s, ok := n.pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			if types.IsInterface(s.Recv()) {
				if iface, ok := s.Recv().Underlying().(*types.Interface); ok {
					g.ifaceCalls[n] = append(g.ifaceCalls[n], ifaceCall{iface, sel.Sel.Name})
					return
				}
			}
		}
	}
	// Indirect call through a func value: fan out by signature.
	if sig, ok := n.pkg.Info.TypeOf(fun).(*types.Signature); ok && sig != nil {
		g.sigCalls[n] = append(g.sigCalls[n], sigKey(sig))
	}
}

// recordRef marks a module function referenced as a value address-taken,
// indexing it by the signature of the resulting value (bound method
// values drop the receiver).
func (g *callGraph) recordRef(n *funcNode, pkg *Package, e ast.Expr) {
	var obj types.Object
	switch e := e.(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[e]
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[e.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return
	}
	t := g.byObj[fn]
	if t == nil {
		return
	}
	t.addrTaken = true
	if !simPackage(g.mod, t.pkg) {
		return
	}
	if sig, ok := pkg.Info.TypeOf(e).(*types.Signature); ok && sig != nil {
		key := sigKey(sig)
		for _, have := range g.bySig[key] {
			if have == t {
				return
			}
		}
		g.bySig[key] = append(g.bySig[key], t)
	}
}

// sigKey renders a signature as parameter and result types only —
// types.Signature.String() includes parameter names, which would make
// func(now uint64) and func(uint64) different fan-out buckets.
func sigKey(sig *types.Signature) string {
	var b strings.Builder
	b.WriteByte('(')
	for i := 0; i < sig.Params().Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		if sig.Variadic() && i == sig.Params().Len()-1 {
			b.WriteString("...")
		}
		b.WriteString(types.TypeString(sig.Params().At(i).Type(), nil))
	}
	b.WriteString(")(")
	for i := 0; i < sig.Results().Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(types.TypeString(sig.Results().At(i).Type(), nil))
	}
	b.WriteByte(')')
	return b.String()
}

// ifaceMethodOn returns the *types.Func for method name on named (or
// *named) when the type implements iface, else nil.
func ifaceMethodOn(named *types.Named, iface *types.Interface, name string) types.Object {
	ptr := types.NewPointer(named)
	if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
		return nil
	}
	obj, _, _ := types.LookupFieldOrMethod(ptr, true, named.Obj().Pkg(), name)
	if fn, ok := obj.(*types.Func); ok {
		return fn
	}
	return nil
}

// engineDispatchMethods are the method names a simulation engine calls on
// registered components every cycle (sim.Clocked's Tick, and sim.Lazy's
// NextWork and Skipped). Any module method with one of these names on a
// simulation-package type is treated as a shard-window entry point.
var engineDispatchMethods = map[string]bool{"Tick": true, "NextWork": true, "Skipped": true}

// windowRoots marks the shard-parallel-window entry points:
//
//   - machine.shardWorker, the function each shard's OS thread runs;
//   - every engine-dispatch method (Tick/NextWork/Skipped) on a
//     simulation-package type — a shard engine tick can invoke any of
//     them during a window.
//
// Everything a window can execute is then reached through the graph's
// static, interface, indirect and literal edges (a due event is an
// indirect call from the engine's dispatch loop to its fire function).
func (g *callGraph) windowRoots() []*funcNode {
	var roots []*funcNode
	for _, n := range g.nodes {
		if n.obj == nil {
			continue
		}
		base := internalBase(g.mod, n.pkg)
		if base == "machine" && n.obj.Name() == "shardWorker" {
			roots = append(roots, n)
			continue
		}
		if engineDispatchMethods[n.obj.Name()] && n.sig.Recv() != nil && simPackage(g.mod, n.pkg) {
			roots = append(roots, n)
		}
	}
	return roots
}

// markReachable floods reachability from the given roots.
func (g *callGraph) markReachable(roots []*funcNode) {
	work := append([]*funcNode(nil), roots...)
	for _, n := range work {
		n.reachable = true
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for t := range n.calls { //simlint:allow maporder -- flood fill over a set: visit order cannot change the reachable set
			if !t.reachable {
				t.reachable = true
				work = append(work, t)
			}
		}
	}
}

// astUnparen strips parentheses.
func astUnparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
