package soifft

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestNoDeadCode fails on any top-level function, type, variable or
// constant declared under internal/ that no non-test Go file in the tree
// (benchmark/ included) names outside its own declaration, and on any
// method declared under internal/ whose name no such file selects
// (x.Name) outside the method itself. Without type information methods
// match by name, and a method whose name an interface declares — in the
// tree, or in the standard library list stdlibMethods — counts as used.
// Identifiers kept on purpose — read only by tests, say — are listed in
// DEADCODE.txt with their reason; an entry whose identifier is gone or
// referenced again fails too, so the ledger cannot go stale.
func TestNoDeadCode(t *testing.T) {
	mod := modulePath(t)
	type file struct {
		pkg string // import path
		ast *ast.File
	}
	var files []file
	names := map[string]string{} // import path → package name
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join(mod, filepath.ToSlash(filepath.Dir(p)))
		names[pkg] = f.Name.Name
		files = append(files, file{pkg, f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Declarations: top-level names of internal/ packages, and their
	// methods as import/path.Type.Method.
	declared := map[string]token.Position{}
	methods := map[string]string{} // method key → method name
	for _, f := range files {
		if !strings.HasPrefix(f.pkg, mod+"/internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			for _, id := range declNames(d) {
				if id.Name != "_" && id.Name != "init" {
					declared[f.pkg+"."+id.Name] = fset.Position(id.Pos())
				}
			}
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				key := f.pkg + "." + receiverType(fd) + "." + fd.Name.Name
				declared[key] = fset.Position(fd.Name.Pos())
				methods[key] = fd.Name.Name
			}
		}
	}

	// References: unqualified names resolve to the file's own package,
	// pkg.Name selectors through the file's imports, and any other x.Name
	// selector names a method or field. A name used only inside its own
	// declaration (recursion, a method on itself) does not count.
	used := map[string]bool{}
	selected := map[string]bool{} // method names: selectors and interface methods
	for _, name := range stdlibMethods {
		selected[name] = true
	}
	for _, f := range files {
		imports := map[string]string{} // local name → import path
		for _, im := range f.ast.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			local := path.Base(ip)
			if n, ok := names[ip]; ok {
				local = n
			}
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = ip
		}
		for _, d := range f.ast.Decls {
			self := map[string]bool{}
			for _, id := range declNames(d) {
				self[f.pkg+"."+id.Name] = true
			}
			method := ""
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				for _, id := range receiverIdents(fd) {
					self[f.pkg+"."+id] = true
				}
				method = fd.Name.Name
			}
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				key := ""
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
						key = imports[x.Name] + "." + n.Sel.Name
					} else {
						if n.Sel.Name != method {
							selected[n.Sel.Name] = true
						}
						ast.Inspect(n.X, visit) // Sel is a field or method
					}
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, id := range m.Names {
							selected[id.Name] = true
						}
					}
					return true
				case *ast.Ident:
					key = f.pkg + "." + n.Name
				default:
					return true
				}
				if key != "" && !self[key] {
					used[key] = true
				}
				return false
			}
			ast.Inspect(d, visit)
		}
	}

	for key, name := range methods {
		used[key] = selected[name]
	}

	ledger := readLedger(t, "DEADCODE.txt")
	for _, key := range sortedKeys(declared) {
		if _, ok := ledger[key]; !ok && !used[key] {
			t.Errorf("%s: %s is declared but never referenced; delete it or ledger it in DEADCODE.txt", declared[key], key)
		}
	}
	for _, key := range sortedKeys(ledger) {
		switch _, ok := declared[key]; {
		case !ok:
			t.Errorf("DEADCODE.txt: stale entry %s: no such identifier under internal/", key)
		case used[key]:
			t.Errorf("DEADCODE.txt: stale entry %s: it is referenced now", key)
		}
	}
}

// declNames returns the names a top-level declaration introduces:
// none for a method.
func declNames(d ast.Decl) []*ast.Ident {
	var out []*ast.Ident
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			out = append(out, d.Name)
		}
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				out = append(out, s.Name)
			case *ast.ValueSpec:
				out = append(out, s.Names...)
			}
		}
	}
	return out
}

// receiverIdents returns every identifier in a method's receiver: its
// variable, its type and the type's parameters.
func receiverIdents(fd *ast.FuncDecl) []string {
	var out []string
	ast.Inspect(fd.Recv, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			out = append(out, id.Name)
		}
		return true
	})
	return out
}

// receiverType returns the name of a method's receiver type, without
// pointer or type parameters.
func receiverType(fd *ast.FuncDecl) string {
	x := fd.Recv.List[0].Type
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}

// stdlibMethods are the methods of standard-library interfaces that types
// under internal/ implement; the standard library, not a selector in the
// tree, calls them.
var stdlibMethods = []string{
	"Error", "Unwrap", "String", // error, fmt.Stringer
	"Read", "Write", "Close", // io
	"ServeHTTP", // http.Handler
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// modulePath reads the module line of ./go.mod.
func modulePath(t *testing.T) string {
	data, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	t.Fatal("go.mod has no module line")
	return ""
}

// readLedger parses DEADCODE.txt: one "import/path.Name reason" per line,
// '#' comments and blank lines skipped. Every entry needs a reason.
func readLedger(t *testing.T, name string) map[string]string {
	f, err := os.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s: entry %s has no reason", name, key)
		}
		out[key] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
