package integration

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const modulePath = "github.com/tcio/tcio"

// surfaceAllow lists the declarations under internal/ and cmd/ that no
// non-test file references and that stay anyway, each with its reason.
// Methods that satisfy an interface declared in this module (art's backends,
// bench's sweeps, the clocks) are found by the census itself; the
// standard library's interfaces are matched by method name here.
var surfaceAllow = map[string]string{
	// Interfaces of the standard library.
	"*.String": "fmt.Stringer",
	"*.Error":  "the error interface",
	"*.Unwrap": "errors.Is and errors.As walk it",
	"*.Set":    "flag.Value",

	// The calls the paper names (Programs 2 and 3, §IV.A).
	"internal/mpi.Win.Get":          "MPI_Get, beside Put; the library itself gathers through GetSegmentsAsync",
	"internal/tcio.File.WriteTyped": "tcio_write with a datatype (Program 3)",
	"internal/tcio.File.ReadTyped":  "tcio_read with a datatype (Program 3)",
	"internal/datatype.Indexed":     "MPI_Type_indexed, the type §IV.A ships level-1 blocks with",
	"internal/datatype.Struct":      "MPI_Type_struct, Program 2's (int, double) record",
	"internal/datatype.ByName":      "Table I's TYPEarray codes (c, s, i, f, d), which the basic types hang off",
	"internal/extent.Layout.Locate": "equations (1)-(3) in one call; the layout tests pin Segment and Owner against it",
	"internal/tcio.File.Seek":       "tcio_seek, the file pointer of the POSIX-like calls",
	"internal/tcio.File.Read":       "tcio_read at the file pointer, beside Write",
	"internal/conformance.LoadDir":  "reads back what Save writes; the corpus replay test is its reader",
	"internal/mutate.All":           "walked by the mutation gate, which builds under conformance_mutants",
	"internal/mutate.Built":         "tells a test binary whether the mutant hooks are live",
	"internal/mpi.RPCErrNone":       "names the zero RPCErrCode, the wire's \"no error\"",
	"internal/pfs.File.ReadAt":      "one un-retried request: pfs's tests roll faults and readahead through it",

	// Accessors that tests of other behaviour observe state through.
	"internal/faults.Injector.Injected": "per-site fault counts in chaos tests",
	"internal/faults.NoRetry":           "the zero-budget policy of the exhaustion tests",
	"internal/mpiio.File.PFS":           "the file behind a handle, for byte verification",
	"internal/mpi.Comm.MemUsed":         "a rank's simulated footprint, for leak checks",
	"internal/pfs.File.LockOwners":      "extent-lock state after conflicting writes",
	"internal/tcio.File.Capacity":       "the level-2 capacity the ErrCapacity tests aim past",
	"internal/stats.Sample.N":           "sample size in the stats tests",
	"internal/stats.Sample.Min":         "sample bounds in the stats tests",
	"internal/stats.Sample.Max":         "sample bounds in the stats tests",
	"internal/delegate.Tier.NumClients": "with ClientIndex, how the delegate tests deal blocks to clients",
	"internal/bench.Report.Det":         "the deterministic projection the host-order ratchet compares exactly",
	"internal/simtime.Resource.Stats":   "busy time and request count, the only readers of those counters",
	"internal/mpi.SetTouchHook":         "the host-order ratchet's jitter and touch census; production leaves the gate empty",
}

// TestSurfaceHasCallers is the census behind DESIGN.md's "every name has a
// caller" rule: every package-level declaration and method in non-test
// internal/ + cmd/ is referenced from a non-test file of the root module or
// of benchmark/, outside its own declaration. It type-checks the whole tree
// from source, so it is skipped under -short.
func TestSurfaceHasCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	c := newCensus(root)
	for _, top := range []string{"internal", "cmd", "examples", "benchmark"} {
		if err := c.loadTree(top); err != nil {
			t.Fatal(err)
		}
	}
	dead := c.unreferenced()
	var stale []string
	for pat := range surfaceAllow {
		if !c.allowHit[pat] {
			stale = append(stale, pat)
		}
	}
	sort.Strings(stale)
	for _, pat := range stale {
		t.Errorf("allowlist entry %q excuses nothing: remove it", pat)
	}
	if len(surfaceAllow) > 45 {
		t.Errorf("allowlist has %d entries, more than 45", len(surfaceAllow))
	}
	for _, d := range dead {
		t.Errorf("no non-test caller: %s", d)
	}
}

// census type-checks the module's non-test files, sharing one types.Package
// per import path so an object used in one package is the object declared in
// another.
type census struct {
	root     string
	fset     *token.FileSet
	std      types.Importer
	pkgs     map[string]*loaded
	allowHit map[string]bool
}

type loaded struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func newCensus(root string) *census {
	fset := token.NewFileSet()
	// The source importer reads build.Default; without cgo it picks the
	// standard library's pure-Go files and needs no C toolchain.
	build.Default.CgoEnabled = false
	return &census{
		root:     root,
		fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil),
		pkgs:     map[string]*loaded{},
		allowHit: map[string]bool{},
	}
}

func (c *census) loadTree(top string) error {
	return filepath.WalkDir(filepath.Join(c.root, top), func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(c.root, path)
		if err != nil {
			return err
		}
		_, err = c.Import(modulePath + "/" + filepath.ToSlash(rel))
		if _, none := err.(*build.NoGoError); none {
			return nil
		}
		return err
	})
}

// Import implements types.Importer: module packages from this checkout's
// source, everything else from GOROOT's.
func (c *census) Import(path string) (*types.Package, error) {
	if !strings.HasPrefix(path, modulePath+"/") {
		return c.std.Import(path)
	}
	if l, ok := c.pkgs[path]; ok {
		return l.pkg, nil
	}
	dir := filepath.Join(c.root, filepath.FromSlash(strings.TrimPrefix(path, modulePath+"/")))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	l := &loaded{info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		l.files = append(l.files, f)
	}
	conf := types.Config{Importer: c}
	l.pkg, err = conf.Check(path, c.fset, l.files, l.info)
	if err != nil {
		return nil, err
	}
	c.pkgs[path] = l
	return l.pkg, nil
}

// span is the source range of one declaration, doc comment excluded.
type span struct{ pos, end token.Pos }

func (s span) holds(p token.Pos) bool { return s.pos <= p && p < s.end }

// unreferenced returns, sorted, every census declaration that nothing outside
// its own declaration (and, for a type, outside its methods' receivers)
// refers to and that the allowlist does not excuse.
func (c *census) unreferenced() []string {
	decl := map[types.Object]span{}  // census objects → their declaration
	recv := map[token.Pos]bool{}     // identifiers inside receiver lists
	ifaces := map[*types.Func]bool{} // interface methods declared in the module
	for path, l := range c.pkgs {
		counted := strings.HasPrefix(path, modulePath+"/internal/") || strings.HasPrefix(path, modulePath+"/cmd/")
		for _, f := range l.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								recv[id.Pos()] = true
							}
							return true
						})
					}
					if counted && d.Name.Name != "_" && (d.Recv != nil || d.Name.Name != "main" && d.Name.Name != "init") {
						decl[l.info.Defs[d.Name]] = span{d.Pos(), d.End()}
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if counted {
								decl[l.info.Defs[s.Name]] = span{s.Pos(), s.End()}
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if counted && id.Name != "_" {
									decl[l.info.Defs[id]] = span{s.Pos(), s.End()}
								}
							}
						}
					}
				}
			}
		}
		for _, obj := range l.info.Defs {
			if fn, ok := obj.(*types.Func); ok {
				if sig := fn.Type().(*types.Signature); sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
					ifaces[fn] = true
				}
			}
		}
	}

	used := map[types.Object]bool{}
	for _, l := range c.pkgs {
		for id, obj := range l.info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if s, ok := decl[obj]; ok && !s.holds(id.Pos()) && !recv[id.Pos()] {
				used[obj] = true
			}
			if fn, ok := obj.(*types.Func); ok && ifaces[fn] {
				used[obj] = true
			}
		}
	}
	// A method is reached through an interface when its receiver implements
	// a module interface whose method of that name is called somewhere.
	for obj := range decl {
		fn, ok := obj.(*types.Func)
		if !ok || used[obj] {
			continue
		}
		r := fn.Type().(*types.Signature).Recv()
		if r == nil {
			continue
		}
		for im := range ifaces {
			if im.Name() != fn.Name() || !used[im] {
				continue
			}
			it := im.Type().(*types.Signature).Recv().Type()
			if _, generic := it.(*types.TypeParam); generic {
				continue
			}
			if types.Implements(r.Type(), it.Underlying().(*types.Interface)) ||
				types.Implements(types.NewPointer(r.Type()), it.Underlying().(*types.Interface)) {
				used[obj] = true
				break
			}
		}
	}

	var dead []string
	for obj, s := range decl {
		if used[obj] {
			continue
		}
		name, pattern := censusName(obj)
		if _, ok := surfaceAllow[pattern]; ok {
			name = pattern
		}
		if _, ok := surfaceAllow[name]; ok {
			c.allowHit[name] = true
			continue
		}
		p := c.fset.Position(s.pos)
		rel, _ := filepath.Rel(c.root, p.Filename)
		lines := c.fset.Position(s.end).Line - p.Line + 1
		dead = append(dead, fmt.Sprintf("%s (%s:%d, %d lines)", name, rel, p.Line, lines))
	}
	sort.Strings(dead)
	return dead
}

// censusName returns the allowlist key of a declaration — "internal/pkg.Name",
// or "internal/pkg.Type.Method" — and, for a method, the any-receiver pattern
// "*.Method" that also excuses it.
func censusName(obj types.Object) (name, pattern string) {
	pkg := strings.TrimPrefix(obj.Pkg().Path(), modulePath+"/")
	if fn, ok := obj.(*types.Func); ok {
		if r := fn.Type().(*types.Signature).Recv(); r != nil {
			t := r.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			return pkg + "." + t.(*types.Named).Obj().Name() + "." + obj.Name(), "*." + obj.Name()
		}
	}
	return pkg + "." + obj.Name(), ""
}
