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
// (benchmark/ included) names outside its own declaration. Identifiers
// kept on purpose — read only by tests, say — are listed in DEADCODE.txt
// with their reason; an entry whose identifier is gone or referenced
// again fails too, so the ledger cannot go stale.
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

	// Declarations: top-level non-method names of internal/ packages.
	declared := map[string]token.Position{}
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
		}
	}

	// References: unqualified names resolve to the file's own package,
	// pkg.Name selectors through the file's imports. A name used only
	// inside its own declaration (recursion, a method on itself) does not
	// count.
	used := map[string]bool{}
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
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				for _, id := range receiverTypes(fd) {
					self[f.pkg+"."+id] = true
				}
			}
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				key := ""
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
						key = imports[x.Name] + "." + n.Sel.Name
					} else {
						ast.Inspect(n.X, visit) // Sel is a field or method
					}
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

	ledger := readLedger(t, "DEADCODE.txt")
	for _, key := range sortedKeys(declared) {
		if _, ok := ledger[key]; !ok && !used[key] {
			t.Errorf("%s: %s is declared but never referenced; delete it or ledger it in DEADCODE.txt", declared[key], key)
		}
	}
	for _, key := range sortedKeys(ledger) {
		switch _, ok := declared[key]; {
		case !ok:
			t.Errorf("DEADCODE.txt: stale entry %s: no such top-level identifier under internal/", key)
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

// receiverTypes returns the type name a method's receiver names.
func receiverTypes(fd *ast.FuncDecl) []string {
	var out []string
	ast.Inspect(fd.Recv, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			out = append(out, id.Name)
		}
		return true
	})
	return out
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
