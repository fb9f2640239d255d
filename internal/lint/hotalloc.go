package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotAllocPackages are the packages on the simulator's per-message hot
// path: every network message and memory-controller dispatch flows through
// them, so a stray allocation there multiplies by hundreds of millions of
// events per run. machine is included for the shard staging/replay path:
// every cross-shard message crosses its coordinator.
var hotAllocPackages = []string{"network", "memctrl", "coherence", "ppengine", "machine"}

// runHotAlloc flags the two allocation patterns the hot path has been
// purged of:
//
//   - struct fields typed map[uint64]...: address-keyed runtime maps hash
//     and allocate on insert; hot-path tracking state belongs in a dense
//     table sized from config (see internal/memctrl/tables.go);
//   - &network.Message{...} composite literals: a message is a plain value,
//     built in place and copied into the queue or descriptor that holds it;
//     taking the address of a literal puts it on the heap once it escapes.
//
// Cold paths keep the idiom under a //simlint:allow hotalloc -- <reason>
// annotation.
func runHotAlloc(mod *Module) []Diagnostic {
	var out []Diagnostic
	msgPkg := mod.Path + "/internal/network"
	for _, pkg := range mod.Packages {
		if !hotAllocPackage(mod, pkg) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.StructType:
					for _, field := range n.Fields.List {
						ft := pkg.Info.TypeOf(field.Type)
						if ft == nil {
							continue
						}
						mt, ok := ft.Underlying().(*types.Map)
						if !ok {
							continue
						}
						if bt, ok := mt.Key().Underlying().(*types.Basic); ok && bt.Kind() == types.Uint64 {
							out = append(out, mod.diag(field.Pos(), "hotalloc",
								"map[uint64]-keyed field in a hot package: use a dense table sized from config, or annotate"))
						}
					}
				case *ast.UnaryExpr:
					if n.Op != token.AND {
						return true
					}
					cl, ok := n.X.(*ast.CompositeLit)
					if !ok || !isNamedType(pkg.Info.TypeOf(cl), msgPkg, "Message") {
						return true
					}
					out = append(out, mod.diag(n.Pos(), "hotalloc",
						"&network.Message literal allocates on the hot path: build the message as a value, or annotate"))
				}
				return true
			})
		}
	}
	return out
}

func hotAllocPackage(mod *Module, pkg *Package) bool {
	for _, name := range hotAllocPackages {
		if pkg.Path == mod.Path+"/internal/"+name {
			return true
		}
	}
	return false
}

// isNamedType reports whether t is the named type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}
