// Package custom implements EnCore's customization interface
// (Section 5.3): a customization file with seven "$$" sections lets users
// declare new semantic types (with inference and validation methods), new
// augmented attributes, new relation operators, and new rule templates —
// without recompiling the tool.
//
// The paper embeds Python snippets for the user-supplied methods; this
// implementation provides a small, safe expression language instead. An
// expression evaluates over the bound configuration values ("value" for
// type methods, "v1"/"v2" for operators) and can consult the system
// environment through built-in functions backed by the data structures of
// Table 7 (file system metadata, accounts, services, environment
// variables, security state, hardware).
package custom

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/conftypes"
	"repro/internal/sysimage"
)

// Env is the evaluation environment for one expression.
type Env struct {
	// Vars binds the expression variables (value, v1, v2, ...).
	Vars map[string]string
	// Image is the system environment; may be nil, in which case all
	// environment probes return their zero results.
	Image *sysimage.Image
}

// Value is a DSL runtime value: a string, number, or boolean.
type Value struct {
	S string
	N float64
	B bool
	// Kind is 's', 'n', or 'b'.
	Kind byte
}

func str(s string) Value   { return Value{S: s, Kind: 's'} }
func num(n float64) Value  { return Value{N: n, Kind: 'n'} }
func boolean(b bool) Value { return Value{B: b, Kind: 'b'} }

// Bool coerces the value to a boolean: booleans themselves, non-zero
// numbers, non-empty strings.
func (v Value) Bool() bool {
	switch v.Kind {
	case 'b':
		return v.B
	case 'n':
		return v.N != 0
	default:
		return v.S != ""
	}
}

// String renders the value for error messages.
func (v Value) String() string {
	switch v.Kind {
	case 'b':
		return strconv.FormatBool(v.B)
	case 'n':
		return strconv.FormatFloat(v.N, 'f', -1, 64)
	default:
		return v.S
	}
}

// asNumber coerces strings that parse as numbers or sizes.
func (v Value) asNumber() (float64, bool) {
	switch v.Kind {
	case 'n':
		return v.N, true
	case 'b':
		if v.B {
			return 1, true
		}
		return 0, true
	default:
		if f, err := strconv.ParseFloat(v.S, 64); err == nil {
			return f, true
		}
		if n, ok := conftypes.ParseSize(v.S); ok {
			return float64(n), true
		}
		return 0, false
	}
}

// Expr is a compiled expression.
type Expr interface {
	Eval(env *Env) (Value, error)
}

type litExpr struct{ v Value }

func (e litExpr) Eval(*Env) (Value, error) { return e.v, nil }

type varExpr struct{ name string }

func (e varExpr) Eval(env *Env) (Value, error) {
	if v, ok := env.Vars[e.name]; ok {
		return str(v), nil
	}
	return Value{}, fmt.Errorf("custom: unknown variable %q", e.name)
}

type unaryExpr struct {
	op string
	x  Expr
}

func (e unaryExpr) Eval(env *Env) (Value, error) {
	v, err := e.x.Eval(env)
	if err != nil {
		return Value{}, err
	}
	switch e.op {
	case "!":
		return boolean(!v.Bool()), nil
	case "-":
		n, ok := v.asNumber()
		if !ok {
			return Value{}, fmt.Errorf("custom: cannot negate %q", v)
		}
		return num(-n), nil
	}
	return Value{}, fmt.Errorf("custom: unknown unary op %q", e.op)
}

type binExpr struct {
	op   string
	l, r Expr
}

func (e binExpr) Eval(env *Env) (Value, error) {
	// Short-circuit logic.
	if e.op == "&&" || e.op == "||" {
		l, err := e.l.Eval(env)
		if err != nil {
			return Value{}, err
		}
		if e.op == "&&" && !l.Bool() {
			return boolean(false), nil
		}
		if e.op == "||" && l.Bool() {
			return boolean(true), nil
		}
		r, err := e.r.Eval(env)
		if err != nil {
			return Value{}, err
		}
		return boolean(r.Bool()), nil
	}
	l, err := e.l.Eval(env)
	if err != nil {
		return Value{}, err
	}
	r, err := e.r.Eval(env)
	if err != nil {
		return Value{}, err
	}
	switch e.op {
	case "+":
		if l.Kind == 's' || r.Kind == 's' {
			return str(l.String() + r.String()), nil
		}
		ln, _ := l.asNumber()
		rn, _ := r.asNumber()
		return num(ln + rn), nil
	case "==":
		return boolean(l.String() == r.String()), nil
	case "!=":
		return boolean(l.String() != r.String()), nil
	case "<", "<=", ">", ">=":
		ln, lok := l.asNumber()
		rn, rok := r.asNumber()
		if lok && rok {
			switch e.op {
			case "<":
				return boolean(ln < rn), nil
			case "<=":
				return boolean(ln <= rn), nil
			case ">":
				return boolean(ln > rn), nil
			default:
				return boolean(ln >= rn), nil
			}
		}
		// String comparison fallback.
		switch e.op {
		case "<":
			return boolean(l.String() < r.String()), nil
		case "<=":
			return boolean(l.String() <= r.String()), nil
		case ">":
			return boolean(l.String() > r.String()), nil
		default:
			return boolean(l.String() >= r.String()), nil
		}
	}
	return Value{}, fmt.Errorf("custom: unknown operator %q", e.op)
}

type callExpr struct {
	name string
	args []Expr
}

func (e callExpr) Eval(env *Env) (Value, error) {
	fn, ok := builtins[e.name]
	if !ok {
		return Value{}, fmt.Errorf("custom: unknown function %q", e.name)
	}
	args := make([]Value, len(e.args))
	for i, a := range e.args {
		v, err := a.Eval(env)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	return fn(env, args)
}

// builtin implements one DSL function.
type builtin func(env *Env, args []Value) (Value, error)

func need(name string, args []Value, n int) error {
	if len(args) != n {
		return fmt.Errorf("custom: %s expects %d arguments, got %d", name, n, len(args))
	}
	return nil
}

// builtins expose the Table 7 environment data structures as functions.
var builtins = map[string]builtin{
	"matches": func(env *Env, args []Value) (Value, error) {
		if err := need("matches", args, 2); err != nil {
			return Value{}, err
		}
		re, err := compileCached(args[1].String())
		if err != nil {
			return Value{}, err
		}
		return boolean(re.MatchString(args[0].String())), nil
	},
	"contains": func(env *Env, args []Value) (Value, error) {
		if err := need("contains", args, 2); err != nil {
			return Value{}, err
		}
		return boolean(strings.Contains(args[0].String(), args[1].String())), nil
	},
	"hasPrefix": func(env *Env, args []Value) (Value, error) {
		if err := need("hasPrefix", args, 2); err != nil {
			return Value{}, err
		}
		return boolean(strings.HasPrefix(args[0].String(), args[1].String())), nil
	},
	"hasSuffix": func(env *Env, args []Value) (Value, error) {
		if err := need("hasSuffix", args, 2); err != nil {
			return Value{}, err
		}
		return boolean(strings.HasSuffix(args[0].String(), args[1].String())), nil
	},
	"lower": func(env *Env, args []Value) (Value, error) {
		if err := need("lower", args, 1); err != nil {
			return Value{}, err
		}
		return str(strings.ToLower(args[0].String())), nil
	},
	"size": func(env *Env, args []Value) (Value, error) {
		if err := need("size", args, 1); err != nil {
			return Value{}, err
		}
		n, ok := conftypes.ParseSize(args[0].String())
		if !ok {
			return num(0), nil
		}
		return num(float64(n)), nil
	},
	// FS.* accessors.
	"exists": func(env *Env, args []Value) (Value, error) {
		if err := need("exists", args, 1); err != nil {
			return Value{}, err
		}
		return boolean(env.Image != nil && env.Image.Exists(args[0].String())), nil
	},
	"isDir": func(env *Env, args []Value) (Value, error) {
		if err := need("isDir", args, 1); err != nil {
			return Value{}, err
		}
		return boolean(env.Image != nil && env.Image.IsDir(args[0].String())), nil
	},
	"isFile": func(env *Env, args []Value) (Value, error) {
		if err := need("isFile", args, 1); err != nil {
			return Value{}, err
		}
		return boolean(env.Image != nil && env.Image.IsFile(args[0].String())), nil
	},
	"owner": func(env *Env, args []Value) (Value, error) {
		if err := need("owner", args, 1); err != nil {
			return Value{}, err
		}
		if env.Image == nil {
			return str(""), nil
		}
		if fm := env.Image.Resolve(args[0].String()); fm != nil {
			return str(fm.Owner), nil
		}
		return str(""), nil
	},
	"group": func(env *Env, args []Value) (Value, error) {
		if err := need("group", args, 1); err != nil {
			return Value{}, err
		}
		if env.Image == nil {
			return str(""), nil
		}
		if fm := env.Image.Resolve(args[0].String()); fm != nil {
			return str(fm.Group), nil
		}
		return str(""), nil
	},
	"perm": func(env *Env, args []Value) (Value, error) {
		if err := need("perm", args, 1); err != nil {
			return Value{}, err
		}
		if env.Image == nil {
			return str(""), nil
		}
		if fm := env.Image.Resolve(args[0].String()); fm != nil {
			return str(sysimage.PermString(fm.Mode & 0o777)), nil
		}
		return str(""), nil
	},
	"accessible": func(env *Env, args []Value) (Value, error) {
		if err := need("accessible", args, 2); err != nil {
			return Value{}, err
		}
		return boolean(env.Image != nil && env.Image.Accessible(args[1].String(), args[0].String())), nil
	},
	"writable": func(env *Env, args []Value) (Value, error) {
		if err := need("writable", args, 2); err != nil {
			return Value{}, err
		}
		return boolean(env.Image != nil && env.Image.Writable(args[1].String(), args[0].String())), nil
	},
	// Acct.* accessors.
	"userExists": func(env *Env, args []Value) (Value, error) {
		if err := need("userExists", args, 1); err != nil {
			return Value{}, err
		}
		return boolean(env.Image != nil && env.Image.UserExists(args[0].String())), nil
	},
	"groupExists": func(env *Env, args []Value) (Value, error) {
		if err := need("groupExists", args, 1); err != nil {
			return Value{}, err
		}
		return boolean(env.Image != nil && env.Image.GroupExists(args[0].String())), nil
	},
	"userInGroup": func(env *Env, args []Value) (Value, error) {
		if err := need("userInGroup", args, 2); err != nil {
			return Value{}, err
		}
		return boolean(env.Image != nil && env.Image.UserInGroup(args[0].String(), args[1].String())), nil
	},
	"primaryGroup": func(env *Env, args []Value) (Value, error) {
		if err := need("primaryGroup", args, 1); err != nil {
			return Value{}, err
		}
		if env.Image == nil {
			return str(""), nil
		}
		return str(env.Image.PrimaryGroup(args[0].String())), nil
	},
	// Service.* accessors.
	"portRegistered": func(env *Env, args []Value) (Value, error) {
		if err := need("portRegistered", args, 1); err != nil {
			return Value{}, err
		}
		n, ok := args[0].asNumber()
		return boolean(ok && env.Image != nil && env.Image.PortRegistered(int(n))), nil
	},
	// Env.* accessor.
	"envVar": func(env *Env, args []Value) (Value, error) {
		if err := need("envVar", args, 1); err != nil {
			return Value{}, err
		}
		if env.Image == nil {
			return str(""), nil
		}
		return str(env.Image.Env[args[0].String()]), nil
	},
	// Sec.* accessor.
	"selinux": func(env *Env, args []Value) (Value, error) {
		if err := need("selinux", args, 0); err != nil {
			return Value{}, err
		}
		if env.Image == nil {
			return str(""), nil
		}
		return str(env.Image.OS.SELinux), nil
	},
	// HW.* accessors (zero when hardware is unavailable, as on dormant
	// images).
	"memBytes": func(env *Env, args []Value) (Value, error) {
		if err := need("memBytes", args, 0); err != nil {
			return Value{}, err
		}
		if env.Image == nil || !env.Image.HW.Present {
			return num(0), nil
		}
		return num(float64(env.Image.HW.MemBytes)), nil
	},
	"cpuCores": func(env *Env, args []Value) (Value, error) {
		if err := need("cpuCores", args, 0); err != nil {
			return Value{}, err
		}
		if env.Image == nil || !env.Image.HW.Present {
			return num(0), nil
		}
		return num(float64(env.Image.HW.CPUCores)), nil
	},
}
