package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The shardsafe analyzer statically enforces the ownership discipline
// that makes intra-run sharding byte-identical to a serial run
// (DESIGN.md §13): during a shard-parallel window, a shard may touch only
// state it owns — its engine, its nodes, its network endpoint — and every
// cross-shard effect must funnel through a sanctioned staging point (the
// endpoint staging path, replayed at the quantum barrier) or a
// lockstep-only function (synchronization-manager mutations, which
// pipeline.SyncHorizon proves cannot happen inside a parallel window).
//
// State is classified by type ownership: the machine coordinator type
// (machine.Machine) is machine-shared, and sharedness propagates through
// its fields into every named type reachable from them, stopping at
// types and fields annotated shard-local. Package-level variables are
// always machine-shared storage. Two directives refine the classification
// (reasons are mandatory, like //simlint:allow):
//
//	//simlint:shardlocal -- <reason>
//	    on a type declaration: every instance is owned by a single shard
//	    (engines, nodes, endpoints, message pools, metric instruments);
//	    on a struct field: the values stored there are shard-owned, and
//	    sharedness does not propagate through the field.
//
//	//simlint:shardfunnel -- <reason>
//	    on a function declaration: a sanctioned staging point. Its body
//	    may touch machine-shared state and use the barrier's channels:
//	    it runs only at a sync point (quantum barrier, lockstep window)
//	    or on the serial path of an unsharded machine.
//
// Window-reachable code is computed from the interprocedural call graph
// (callgraph.go), rooted at machine.shardWorker and every engine-dispatch
// method. Three finding classes:
//
//	(a) a write to machine-shared state (field of a shared type, shared
//	    map/slice element, package-level var) from window-reachable code
//	    outside a funnel;
//	(b) any sync / sync/atomic import or channel operation in a
//	    simulation package outside a funnel — ad-hoc synchronization
//	    would make results schedule-dependent;
//	(c) a shard-owned reference (engine, node, pool, message buffer)
//	    escaping into machine-shared storage, tracked through local
//	    aliases, returns and struct literals — publishing private state
//	    would let another shard race on it in a later window.
func runShardSafe(mod *Module) []Diagnostic {
	dirs := collectShardDirectives(mod)
	out := append([]Diagnostic(nil), dirs.diags...)

	shared := computeSharedTypes(mod, dirs)
	g := buildCallGraph(mod)
	g.markReachable(g.windowRoots())

	ownedReturns := computeOwnedReturns(mod, g, dirs, shared)

	for _, n := range g.nodes {
		if !n.reachable || n.inFunnel(dirs) {
			continue
		}
		c := &shardClassifier{
			mod: mod, pkg: n.pkg, dirs: dirs, shared: shared,
			ownedReturns: ownedReturns,
			aliases:      make(map[types.Object]ownership),
		}
		out = append(out, c.checkWrites(n)...)
	}
	out = append(out, checkConcurrencyPrimitives(mod, dirs)...)
	return out
}

// inFunnel reports whether the node or any enclosing function carries the
// shardfunnel directive (literals inherit their encloser's sanction).
func (n *funcNode) inFunnel(dirs *shardDirectives) bool {
	for cur := n; cur != nil; cur = cur.encl {
		if cur.obj != nil && dirs.funnels[cur.obj] {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Directives

const directivePrefix = "//simlint:"

// shardDirectives is the parsed //simlint:shardlocal / shardfunnel
// annotations of the module.
type shardDirectives struct {
	localTypes  map[types.Object]bool // named types owned by one shard
	localFields map[types.Object]bool // struct fields holding shard-owned values
	funnels     map[types.Object]bool // sanctioned staging functions
	diags       []Diagnostic
}

// directiveSite is one directive comment awaiting attachment to a
// declaration on its line or the line below.
type directiveSite struct {
	pos    token.Pos
	line   int
	funnel bool // shardfunnel vs shardlocal
	used   bool
}

// collectShardDirectives parses and attaches every shard ownership
// directive. Directives are malformed findings when the " -- reason" part
// is missing, when the verb is unknown, or when nothing attachable sits
// on the directive's line or the line below it — a mis-attached directive
// must never silently sanction nothing.
func collectShardDirectives(mod *Module) *shardDirectives {
	d := &shardDirectives{
		localTypes:  make(map[types.Object]bool),
		localFields: make(map[types.Object]bool),
		funnels:     make(map[types.Object]bool),
	}
	for _, pkg := range mod.Packages {
		for _, f := range pkg.Files {
			sites := make(map[int]*directiveSite)
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, directivePrefix)
					if !ok {
						continue
					}
					verb, arg, _ := strings.Cut(rest, " ")
					funnel := false
					switch verb {
					case "allow":
						continue // annotations.go owns the allow grammar
					case "shardlocal":
					case "shardfunnel":
						funnel = true
					default:
						d.diags = append(d.diags, mod.diag(c.Pos(), "shardsafe",
							"unknown simlint directive %q (have allow, shardlocal, shardfunnel)", verb))
						continue
					}
					_, reason, hasReason := strings.Cut(arg, "--")
					if !hasReason || strings.TrimSpace(reason) == "" {
						d.diags = append(d.diags, mod.diag(c.Pos(), "shardsafe",
							"%s directive needs a reason: //simlint:%s -- <reason>", verb, verb))
						continue
					}
					line := mod.Fset.Position(c.Pos()).Line
					sites[line] = &directiveSite{pos: c.Pos(), line: line, funnel: funnel}
				}
			}
			if len(sites) == 0 {
				continue
			}
			attach := func(pos token.Pos) *directiveSite {
				line := mod.Fset.Position(pos).Line
				if s := sites[line]; s != nil && !s.used {
					return s
				}
				if s := sites[line-1]; s != nil && !s.used {
					return s
				}
				return nil
			}
			ast.Inspect(f, func(node ast.Node) bool {
				switch node := node.(type) {
				case *ast.TypeSpec:
					s := attach(node.Pos())
					if s == nil {
						return true
					}
					s.used = true
					if s.funnel {
						d.diags = append(d.diags, mod.diag(s.pos, "shardsafe",
							"shardfunnel attaches to a function, not type %s", node.Name.Name))
						return true
					}
					if obj := pkg.Info.Defs[node.Name]; obj != nil {
						d.localTypes[obj] = true
					}
				case *ast.StructType:
					for _, field := range node.Fields.List {
						s := attach(field.Pos())
						if s == nil {
							continue
						}
						s.used = true
						if s.funnel {
							d.diags = append(d.diags, mod.diag(s.pos, "shardsafe",
								"shardfunnel attaches to a function, not a struct field"))
							continue
						}
						for _, name := range field.Names {
							if obj := pkg.Info.Defs[name]; obj != nil {
								d.localFields[obj] = true
							}
						}
					}
				case *ast.FuncDecl:
					s := attach(node.Pos())
					if s == nil {
						return true
					}
					s.used = true
					if !s.funnel {
						d.diags = append(d.diags, mod.diag(s.pos, "shardsafe",
							"shardlocal attaches to a type or field, not function %s", node.Name.Name))
						return true
					}
					if obj := pkg.Info.Defs[node.Name]; obj != nil {
						d.funnels[obj] = true
					}
				}
				return true
			})
			for _, s := range sites {
				if !s.used {
					d.diags = append(d.diags, mod.diag(s.pos, "shardsafe",
						"shard directive attaches to nothing: put it on (or directly above) a type, field or func declaration"))
				}
			}
		}
	}
	return d
}

// ---------------------------------------------------------------------
// Ownership classification

// computeSharedTypes classifies named types as machine-shared: the
// machine coordinator type seeds the set, and sharedness propagates
// through struct fields into every named type they reference, stopping at
// shardlocal-annotated types and fields. A type is machine-shared when a
// single instance of it is visible to more than one shard.
func computeSharedTypes(mod *Module, dirs *shardDirectives) map[types.Object]bool {
	shared := make(map[types.Object]bool)
	var queue []*types.Named
	add := func(named *types.Named) {
		obj := named.Obj()
		if shared[obj] || dirs.localTypes[obj] {
			return
		}
		shared[obj] = true
		queue = append(queue, named)
	}
	for _, pkg := range mod.Packages {
		if internalBase(mod, pkg) != "machine" {
			continue
		}
		if tn, ok := pkg.Types.Scope().Lookup("Machine").(*types.TypeName); ok {
			if named, ok := tn.Type().(*types.Named); ok {
				add(named)
			}
		}
	}
	for len(queue) > 0 {
		named := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			field := st.Field(i)
			if dirs.localFields[field] {
				continue
			}
			for _, target := range namedTargets(field.Type()) {
				add(target)
			}
		}
	}
	return shared
}

// namedTargets returns the named types a value of type t gives access to:
// t itself when named, or the element/key types behind pointers, slices,
// arrays, maps and channels. Function and interface types hide their
// state, so they propagate nothing.
func namedTargets(t types.Type) []*types.Named {
	switch t := t.(type) {
	case *types.Named:
		return []*types.Named{t}
	case *types.Pointer:
		return namedTargets(t.Elem())
	case *types.Slice:
		return namedTargets(t.Elem())
	case *types.Array:
		return namedTargets(t.Elem())
	case *types.Chan:
		return namedTargets(t.Elem())
	case *types.Map:
		return append(namedTargets(t.Key()), namedTargets(t.Elem())...)
	}
	return nil
}

// ownership is the analyzer's three-valued classification of a value.
type ownership int

const (
	ownUnknown ownership = iota
	ownShard             // owned by a single shard: free to mutate in a window
	ownMachine           // machine-shared: one instance visible to all shards
)

// shardClassifier resolves expressions to ownerships inside one
// window-reachable function.
type shardClassifier struct {
	mod          *Module
	pkg          *Package
	dirs         *shardDirectives
	shared       map[types.Object]bool
	ownedReturns map[types.Object]bool
	aliases      map[types.Object]ownership // flow-insensitive local bindings
}

// classifyType resolves a type: named types annotated shardlocal are
// shard-owned, types in the propagated shared set are machine-shared.
func (c *shardClassifier) classifyType(t types.Type) ownership {
	for t != nil {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			obj := u.Obj()
			if c.dirs.localTypes[obj] {
				return ownShard
			}
			if c.shared[obj] {
				return ownMachine
			}
			return ownUnknown
		default:
			return ownUnknown
		}
	}
	return ownUnknown
}

// classify resolves an expression: its type first, then its derivation —
// package-level vars are shared storage, selecting or indexing a shared
// value stays shared unless the field is shardlocal, fresh composites and
// owned-returning calls are shard-owned, and local variables carry the
// ownership of what was assigned to them.
func (c *shardClassifier) classify(e ast.Expr) ownership {
	e = astUnparen(e)
	if o := c.classifyType(c.pkg.Info.TypeOf(e)); o != ownUnknown {
		return o
	}
	switch e := e.(type) {
	case *ast.Ident:
		obj := c.pkg.Info.ObjectOf(e)
		if v, ok := obj.(*types.Var); ok {
			if packageLevel(v) {
				return ownMachine
			}
			return c.aliases[v]
		}
	case *ast.SelectorExpr:
		if sel, ok := c.pkg.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if c.dirs.localFields[fieldVarOf(sel)] {
				return ownShard
			}
			return c.classify(e.X)
		}
		// Qualified reference to another package's var: pkg.Var.
		if obj, ok := c.pkg.Info.Uses[e.Sel].(*types.Var); ok && packageLevel(obj) {
			return ownMachine
		}
	case *ast.IndexExpr:
		return c.classify(e.X)
	case *ast.StarExpr:
		return c.classify(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return c.classify(e.X)
		}
	case *ast.CompositeLit:
		return ownShard // a fresh value belongs to its creator
	case *ast.CallExpr:
		if obj := calleeObj(c.pkg.Info, e); obj != nil && c.ownedReturns[obj] {
			return ownShard
		}
	}
	return ownUnknown
}

// packageLevel reports whether v is a package-scoped variable.
func packageLevel(v *types.Var) bool {
	if v.IsField() {
		return false
	}
	pkg := v.Pkg()
	return pkg != nil && pkg.Scope().Lookup(v.Name()) == v
}

// fieldVarOf returns the *types.Var of a field selection.
func fieldVarOf(sel *types.Selection) *types.Var {
	if v, ok := sel.Obj().(*types.Var); ok {
		return v
	}
	return nil
}

// fillAliases records the ownership of local variables from their
// assignments, iterating twice so x := owned; y := x chains resolve.
func (c *shardClassifier) fillAliases(body *ast.BlockStmt) {
	for pass := 0; pass < 2; pass++ {
		ast.Inspect(body, func(node ast.Node) bool {
			if _, ok := node.(*ast.FuncLit); ok {
				return false // literals are separate graph nodes
			}
			as, ok := node.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := astUnparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				v, ok := c.pkg.Info.ObjectOf(id).(*types.Var)
				if !ok || packageLevel(v) || v.IsField() {
					continue
				}
				if o := c.classify(as.Rhs[i]); o != ownUnknown {
					// Machine-shared wins: aliasing shared state through a
					// local must not launder it into "unknown".
					if o == ownMachine || c.aliases[v] == ownUnknown {
						c.aliases[v] = o
					}
				}
			}
			return true
		})
	}
}

// checkWrites walks one window-reachable function and reports class (a)
// shared-state writes and class (c) shard-owned escapes.
func (c *shardClassifier) checkWrites(n *funcNode) []Diagnostic {
	body := n.body()
	if body == nil {
		return nil
	}
	c.fillAliases(body)
	var out []Diagnostic
	report := func(pos token.Pos, target string, rhs ast.Expr) {
		if rhs != nil && c.classify(rhs) == ownShard && referenceLike(c.pkg.Info.TypeOf(rhs)) {
			out = append(out, c.mod.diag(pos, "shardsafe",
				"shard-owned reference escapes into machine-shared %s in window-reachable %s; another shard could race on it — keep it shard-local or annotate", target, n.name()))
			return
		}
		out = append(out, c.mod.diag(pos, "shardsafe",
			"write to machine-shared %s in window-reachable %s; stage it through the shard endpoint, move it into a //simlint:shardfunnel, or annotate", target, n.name()))
	}
	ast.Inspect(body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			return false // separate graph node, checked on its own
		case *ast.AssignStmt:
			for i, lhs := range node.Lhs {
				if target, shared := c.writeTarget(lhs, node.Tok); shared {
					var rhs ast.Expr
					if len(node.Lhs) == len(node.Rhs) {
						rhs = node.Rhs[i]
					}
					report(lhs.Pos(), target, rhs)
				}
			}
		case *ast.IncDecStmt:
			if target, shared := c.writeTarget(node.X, token.ASSIGN); shared {
				report(node.X.Pos(), target, nil)
			}
		case *ast.CallExpr:
			if obj, ok := calleeObj(c.pkg.Info, node).(*types.Builtin); ok && len(node.Args) > 0 {
				switch obj.Name() {
				case "delete", "copy":
					if target, shared := c.writeTarget(node.Args[0], token.ASSIGN); shared {
						report(node.Args[0].Pos(), target+" ("+obj.Name()+")", nil)
					}
				}
			}
		case *ast.CompositeLit:
			// Class (c): a shard-owned reference placed into a literal of a
			// machine-shared type escapes the shard even if the literal is
			// only passed onward.
			if c.classifyType(c.pkg.Info.TypeOf(node)) != ownMachine {
				return true
			}
			for _, elt := range node.Elts {
				val := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				if c.classify(val) == ownShard && referenceLike(c.pkg.Info.TypeOf(val)) {
					out = append(out, c.mod.diag(val.Pos(), "shardsafe",
						"shard-owned reference stored into a literal of a machine-shared type in window-reachable %s; another shard could race on it — keep it shard-local or annotate", n.name()))
				}
			}
		}
		return true
	})
	return out
}

// writeTarget classifies the storage an assignment statement mutates,
// returning a description and whether it is machine-shared. A := binding
// creates new local storage and is never a shared write.
func (c *shardClassifier) writeTarget(lhs ast.Expr, tok token.Token) (string, bool) {
	lhs = astUnparen(lhs)
	switch lhs := lhs.(type) {
	case *ast.Ident:
		if lhs.Name == "_" || tok == token.DEFINE {
			return "", false
		}
		if v, ok := c.pkg.Info.ObjectOf(lhs).(*types.Var); ok && packageLevel(v) {
			return "package-level var " + lhs.Name, true
		}
	case *ast.SelectorExpr:
		if sel, ok := c.pkg.Info.Selections[lhs]; ok && sel.Kind() == types.FieldVal {
			if c.dirs.localFields[fieldVarOf(sel)] {
				return "", false
			}
			if c.classify(lhs.X) == ownMachine {
				return "field " + lhs.Sel.Name, true
			}
			return "", false
		}
		if obj, ok := c.pkg.Info.Uses[lhs.Sel].(*types.Var); ok && packageLevel(obj) {
			return "package-level var " + lhs.Sel.Name, true
		}
	case *ast.IndexExpr:
		if c.classify(lhs.X) == ownMachine {
			return "map/slice element", true
		}
	case *ast.StarExpr:
		if c.classify(lhs.X) == ownMachine {
			return "pointed-to value", true
		}
	}
	return "", false
}

// referenceLike reports whether values of t alias underlying storage, so
// that handing one to another shard shares mutable state (pointers,
// slices, maps, channels and types built from them). Plain scalars copy.
func referenceLike(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if referenceLike(t.Field(i).Type()) {
				return true
			}
		}
	}
	return false
}

// body returns the statement block of a graph node.
func (n *funcNode) body() *ast.BlockStmt {
	if n.decl != nil {
		return n.decl.Body
	}
	if n.lit != nil {
		return n.lit.Body
	}
	return nil
}

// computeOwnedReturns marks module functions that return shard-owned
// references under an unnamed (hence unclassifiable) result type, so call
// results track ownership through one level of return: every return
// statement's expression must classify shard-owned by type and field
// rules alone.
func computeOwnedReturns(mod *Module, g *callGraph, dirs *shardDirectives, shared map[types.Object]bool) map[types.Object]bool {
	owned := make(map[types.Object]bool)
	for _, n := range g.nodes {
		if n.obj == nil || n.sig.Results().Len() != 1 || !simPackage(mod, n.pkg) {
			continue
		}
		c := &shardClassifier{mod: mod, pkg: n.pkg, dirs: dirs, shared: shared,
			ownedReturns: owned, aliases: map[types.Object]ownership{}}
		if c.classifyType(n.sig.Results().At(0).Type()) != ownUnknown {
			continue // the type already answers the question
		}
		returns, allOwned := 0, true
		ast.Inspect(n.decl.Body, func(node ast.Node) bool {
			if _, ok := node.(*ast.FuncLit); ok {
				return false
			}
			if ret, ok := node.(*ast.ReturnStmt); ok && len(ret.Results) == 1 {
				returns++
				if c.classify(ret.Results[0]) != ownShard {
					allOwned = false
				}
			}
			return true
		})
		if returns > 0 && allOwned {
			owned[n.obj] = true
		}
	}
	return owned
}

// ---------------------------------------------------------------------
// Class (b): concurrency primitives

// checkConcurrencyPrimitives flags sync / sync/atomic imports and channel
// operations in simulation packages outside funnel-sanctioned functions.
// The shard barrier protocol of machine/shard.go is the only sanctioned
// use: anything else would order events by the host scheduler instead of
// the conservative quantum protocol, making results schedule-dependent.
func checkConcurrencyPrimitives(mod *Module, dirs *shardDirectives) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range mod.Packages {
		if !simPackage(mod, pkg) {
			continue
		}
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				switch importPath(imp) {
				case "sync", "sync/atomic":
					out = append(out, mod.diag(imp.Pos(), "shardsafe",
						"import of %s in a simulation package: cross-shard ordering must come from the quantum barrier, not ad-hoc synchronization", importPath(imp)))
				}
			}
			// Track the enclosing function chain so operations inside a
			// sanctioned funnel (and its nested literals) are skipped.
			var funnelDepth, anonDepth []int
			depth := 0
			inFunnel := func() bool { return len(funnelDepth) > 0 }
			var visit func(node ast.Node) bool
			visit = func(node ast.Node) bool {
				if node == nil {
					if len(funnelDepth) > 0 && funnelDepth[len(funnelDepth)-1] == depth {
						funnelDepth = funnelDepth[:len(funnelDepth)-1]
					}
					if len(anonDepth) > 0 && anonDepth[len(anonDepth)-1] == depth {
						anonDepth = anonDepth[:len(anonDepth)-1]
					}
					depth--
					return true
				}
				depth++
				switch node := node.(type) {
				case *ast.FuncDecl:
					if obj := pkg.Info.Defs[node.Name]; obj != nil && dirs.funnels[obj] {
						funnelDepth = append(funnelDepth, depth)
					}
				case *ast.SendStmt:
					if !inFunnel() {
						out = append(out, mod.diag(node.Pos(), "shardsafe",
							"channel send outside a sanctioned barrier funnel (//simlint:shardfunnel)"))
					}
				case *ast.UnaryExpr:
					if node.Op == token.ARROW && !inFunnel() {
						out = append(out, mod.diag(node.Pos(), "shardsafe",
							"channel receive outside a sanctioned barrier funnel (//simlint:shardfunnel)"))
					}
				case *ast.SelectStmt:
					if !inFunnel() {
						out = append(out, mod.diag(node.Pos(), "shardsafe",
							"select statement outside a sanctioned barrier funnel (//simlint:shardfunnel)"))
					}
				case *ast.RangeStmt:
					if t := pkg.Info.TypeOf(node.X); t != nil && !inFunnel() {
						if _, isChan := t.Underlying().(*types.Chan); isChan {
							out = append(out, mod.diag(node.Pos(), "shardsafe",
								"range over a channel outside a sanctioned barrier funnel (//simlint:shardfunnel)"))
						}
					}
				case *ast.CallExpr:
					if b, ok := calleeObj(pkg.Info, node).(*types.Builtin); ok && !inFunnel() {
						switch b.Name() {
						case "close":
							out = append(out, mod.diag(node.Pos(), "shardsafe",
								"close of a channel outside a sanctioned barrier funnel (//simlint:shardfunnel)"))
						case "make":
							if t := pkg.Info.TypeOf(node); t != nil {
								if _, isChan := t.Underlying().(*types.Chan); isChan {
									out = append(out, mod.diag(node.Pos(), "shardsafe",
										"channel created outside a sanctioned barrier funnel (//simlint:shardfunnel)"))
								}
							}
						}
					}
				}
				return true
			}
			ast.Inspect(f, visit)
		}
	}
	return out
}
