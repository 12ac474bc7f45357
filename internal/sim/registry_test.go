package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// kindConst is one event-kind constant found in the model packages.
type kindConst struct {
	name, pkg, pos string
	value          uint64
}

var (
	kindConstName = regexp.MustCompile(`^[eE]ventKind\w*$`)
	// registryLine matches one entry of the Event.Kind registry comment,
	// e.g. "//	0x41 system:   terminal think completion".
	registryLine = regexp.MustCompile(`^\s*//\s+0x([0-9a-fA-F]{2})\s+(\w+):`)
)

// scanKinds parses every non-test Go file under root and returns its
// event-kind constants (`eventKind… byte = 0x..`) and the identifiers
// used as ring network.Message kinds.
func scanKinds(t *testing.T, root string) (consts []kindConst, msgKinds map[string]string) {
	t.Helper()
	msgKinds = make(map[string]string)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		pkg := filepath.Base(filepath.Dir(path))
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GenDecl:
				if n.Tok != token.CONST {
					return true
				}
				for _, spec := range n.Specs {
					vs := spec.(*ast.ValueSpec)
					typ, _ := vs.Type.(*ast.Ident)
					for i, name := range vs.Names {
						if !kindConstName.MatchString(name.Name) || typ == nil || typ.Name != "byte" || i >= len(vs.Values) {
							continue
						}
						lit, ok := vs.Values[i].(*ast.BasicLit)
						if !ok || !strings.HasPrefix(lit.Value, "0x") {
							t.Errorf("%s: %s is not a hex literal", fset.Position(name.Pos()), name.Name)
							continue
						}
						v, err := strconv.ParseUint(lit.Value, 0, 8)
						if err != nil {
							t.Errorf("%s: %v", fset.Position(name.Pos()), err)
							continue
						}
						consts = append(consts, kindConst{name.Name, pkg, fset.Position(name.Pos()).String(), v})
					}
				}
			case *ast.CompositeLit:
				// network.Message{..., Kind: k, ...}
				if !isMessageType(n.Type) {
					return true
				}
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, _ := kv.Key.(*ast.Ident)
					id, isIdent := kv.Value.(*ast.Ident)
					if key != nil && key.Name == "Kind" && isIdent {
						msgKinds[id.Name] = fset.Position(kv.Pos()).String()
					}
				}
			case *ast.AssignStmt:
				// m.Kind = eventKind…
				for i, lhs := range n.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "Kind" || i >= len(n.Rhs) {
						continue
					}
					if id, ok := n.Rhs[i].(*ast.Ident); ok && kindConstName.MatchString(id.Name) {
						msgKinds[id.Name] = fset.Position(n.Pos()).String()
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return consts, msgKinds
}

// isMessageType reports whether a composite literal's type is the ring
// message, network.Message (or Message inside package network).
func isMessageType(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		x, ok := e.X.(*ast.Ident)
		return ok && x.Name == "network" && e.Sel.Name == "Message"
	case *ast.Ident:
		return e.Name == "Message"
	}
	return false
}

// TestEventKindRegistry checks the Event.Kind registry comment in
// sim.go against the code: every event-kind constant under internal/
// has a distinct value, that value is registered under the constant's
// own package, every registry entry is backed by a constant, and every
// ring message kind is one of those constants.
func TestEventKindRegistry(t *testing.T) {
	src, err := os.ReadFile("sim.go")
	if err != nil {
		t.Fatal(err)
	}
	registry := make(map[uint64]string)
	for _, line := range strings.Split(string(src), "\n") {
		m := registryLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		v, _ := strconv.ParseUint(m[1], 16, 8)
		if prev, dup := registry[v]; dup {
			t.Errorf("registry lists 0x%02x twice (%s, %s)", v, prev, m[2])
		}
		registry[v] = m[2]
	}
	if len(registry) == 0 {
		t.Fatal("no registry entries found in sim.go")
	}

	consts, msgKinds := scanKinds(t, "..")
	if len(consts) == 0 {
		t.Fatal("no event-kind constants found under internal/")
	}
	byValue := make(map[uint64]kindConst)
	byName := make(map[string]kindConst)
	for _, c := range consts {
		if prev, dup := byValue[c.value]; dup {
			t.Errorf("0x%02x used by both %s (%s) and %s (%s)", c.value, prev.name, prev.pos, c.name, c.pos)
		}
		byValue[c.value] = c
		byName[c.name] = c
		switch layer, ok := registry[c.value]; {
		case !ok:
			t.Errorf("%s: %s = 0x%02x missing from the sim.Event.Kind registry", c.pos, c.name, c.value)
		case layer != c.pkg:
			t.Errorf("%s: %s = 0x%02x registered under %q, declared in package %s", c.pos, c.name, c.value, layer, c.pkg)
		}
	}
	for v, layer := range registry {
		if _, ok := byValue[v]; !ok {
			t.Errorf("registry entry 0x%02x (%s) has no constant", v, layer)
		}
	}
	for name, pos := range msgKinds {
		if _, ok := byName[name]; !ok {
			t.Errorf("%s: message kind %s is not a registered event-kind constant", pos, name)
		}
	}
	for _, name := range []string{"eventKindFragment", "eventKindOperator"} {
		if _, ok := msgKinds[name]; !ok {
			t.Errorf("ring message kind %s not found in use", name)
		}
	}
}
