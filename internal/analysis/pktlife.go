package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerPktLife checks packet lifecycle discipline against the netsim
// Engine freelist. Engine.AllocPacket hands out *Packet values that must be
// returned exactly once via Engine.FreePacket; the engine recycles freed
// packets immediately, so a use-after-free reads another flow's packet and
// a double free corrupts the freelist (the engine panics, but only at run
// time, only on the path that actually executes). A drop path that neither
// frees nor hands the packet off leaks it for the remainder of the run.
//
// The analysis is intraprocedural and flow-sensitive, and deliberately
// conservative in the quiet direction: passing a packet to any call (a link
// Send, an OnDrop callback) escapes it — ownership moved, tracking stops.
// FreePacket re-arms tracking even after an escape, because the
// drop-callback-then-free pattern is the sanctioned one and a second free
// after it is still a bug.
var AnalyzerPktLife = &Analyzer{
	Name: "pktlife",
	Doc:  "no use-after-free, double-free, or leaked drop paths for Engine.AllocPacket packets",
	Run:  runPktLife,
}

func runPktLife(p *Pass) {
	if !pathIn(p.RelPath, p.Config.PktLifeScope) {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			analyzePktFunc(p, fd.Type, fd.Body)
		}
	}
}

type pktState int

const (
	pktLive pktState = iota
	pktFreed
	pktEscaped
)

// pktTracker is the per-function dataflow state.
type pktTracker struct {
	pass   *Pass
	states map[types.Object]pktState
	// local marks packets allocated in this function: only those carry a
	// leak obligation. Parameters are tracked for free/use discipline but
	// their lifetime belongs to the caller.
	local    map[types.Object]bool
	allocPos map[types.Object]token.Pos
	freedPos map[types.Object]token.Pos
}

func analyzePktFunc(p *Pass, ftype *ast.FuncType, body *ast.BlockStmt) {
	tr := &pktTracker{
		pass:     p,
		states:   make(map[types.Object]pktState),
		local:    make(map[types.Object]bool),
		allocPos: make(map[types.Object]token.Pos),
		freedPos: make(map[types.Object]token.Pos),
	}
	if ftype.Params != nil {
		for _, field := range ftype.Params.List {
			for _, name := range field.Names {
				obj := p.Info.Defs[name]
				if obj != nil && isPacketPtr(obj.Type()) {
					tr.states[obj] = pktLive
				}
			}
		}
	}
	terminated := tr.walkStmts(body.List)
	if !terminated {
		tr.leakCheck(body.End())
	}
}

// isPacketPtr reports whether t is *Packet for any named type Packet.
func isPacketPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Packet"
}

// allocCall reports whether call invokes a method named AllocPacket.
func (tr *pktTracker) allocCall(call *ast.CallExpr) bool {
	fn := calleeFuncOf(tr.pass.Info, call)
	return fn != nil && fn.Name() == "AllocPacket" && recvNamed(fn) != ""
}

// freeCall returns the tracked identifier freed by a FreePacket method call,
// or nil. Non-identifier arguments (p.pkt) are outside the tracked
// domain and are ignored.
func (tr *pktTracker) freeCall(call *ast.CallExpr) *ast.Ident {
	fn := calleeFuncOf(tr.pass.Info, call)
	if fn == nil || fn.Name() != "FreePacket" || recvNamed(fn) == "" || len(call.Args) != 1 {
		return nil
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	if _, tracked := tr.states[tr.pass.Info.Uses[id]]; !tracked {
		return nil
	}
	return id
}

// use records one appearance of a tracked packet. Any use of a freed packet
// is a use-after-free; an escaping use of a live packet transfers ownership
// and stops tracking.
func (tr *pktTracker) use(obj types.Object, pos token.Pos, escaping bool) {
	switch tr.states[obj] {
	case pktFreed:
		fp := tr.pass.Fset.Position(tr.freedPos[obj])
		tr.pass.Reportf(pos, "use of packet %s after FreePacket (freed at %s:%d)", obj.Name(), fp.Filename, fp.Line)
		tr.states[obj] = pktEscaped // one report per free; avoid cascades
	case pktLive:
		if escaping {
			tr.states[obj] = pktEscaped
		}
	}
}

// handleExpr walks an expression recording uses of tracked packets.
// escaping propagates into positions where the pointer value itself is
// stored or handed off (call arguments, composite literals, returns);
// reading a field or comparing the pointer does not escape.
func (tr *pktTracker) handleExpr(e ast.Expr, escaping bool) {
	switch x := e.(type) {
	case nil:
	case *ast.Ident:
		if obj := tr.pass.Info.Uses[x]; obj != nil {
			if _, tracked := tr.states[obj]; tracked {
				tr.use(obj, x.Pos(), escaping)
			}
		}
	case *ast.ParenExpr:
		tr.handleExpr(x.X, escaping)
	case *ast.SelectorExpr:
		tr.handleExpr(x.X, false)
	case *ast.StarExpr:
		tr.handleExpr(x.X, false)
	case *ast.BinaryExpr:
		tr.handleExpr(x.X, false)
		tr.handleExpr(x.Y, false)
	case *ast.UnaryExpr:
		tr.handleExpr(x.X, x.Op == token.AND)
	case *ast.IndexExpr:
		tr.handleExpr(x.X, false)
		tr.handleExpr(x.Index, escaping)
	case *ast.SliceExpr:
		tr.handleExpr(x.X, false)
		tr.handleExpr(x.Low, false)
		tr.handleExpr(x.High, false)
		tr.handleExpr(x.Max, false)
	case *ast.TypeAssertExpr:
		tr.handleExpr(x.X, escaping)
	case *ast.KeyValueExpr:
		tr.handleExpr(x.Key, true)
		tr.handleExpr(x.Value, true)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			tr.handleExpr(el, true)
		}
	case *ast.CallExpr:
		tr.handleCall(x)
	case *ast.FuncLit:
		// A literal capturing a tracked packet escapes it (the closure may
		// run at any time); the literal's own body is analyzed afresh.
		for obj := range tr.states {
			if exprUsesObject(tr.pass.Info, x.Body, obj) {
				tr.use(obj, x.Pos(), true)
			}
		}
		analyzePktFunc(tr.pass, x.Type, x.Body)
	default:
		// Unknown shape: treat every tracked mention as escaping (quiet).
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := tr.pass.Info.Uses[id]; obj != nil {
					if _, tracked := tr.states[obj]; tracked {
						tr.use(obj, id.Pos(), true)
					}
				}
			}
			return true
		})
	}
}

// handleCall processes one call expression: FreePacket transitions, alloc
// calls are inert here (the enclosing assignment defines the packet), and
// every other call escapes its packet arguments.
func (tr *pktTracker) handleCall(call *ast.CallExpr) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		tr.handleExpr(sel.X, false)
	}
	if id := tr.freeCall(call); id != nil {
		obj := tr.pass.Info.Uses[id]
		if tr.states[obj] == pktFreed {
			fp := tr.pass.Fset.Position(tr.freedPos[obj])
			tr.pass.Reportf(call.Pos(), "double free of packet %s (already freed at %s:%d)", obj.Name(), fp.Filename, fp.Line)
		}
		tr.states[obj] = pktFreed
		tr.freedPos[obj] = call.Pos()
		return
	}
	if tr.allocCall(call) {
		return
	}
	for _, arg := range call.Args {
		tr.handleExpr(arg, true)
	}
}

// walkStmts interprets a statement list flow-sensitively. The return value
// reports whether the list always terminates the enclosing function (return
// or panic) — terminated branches contribute no state to merges, which is
// what makes the check-free-return drop pattern clean.
func (tr *pktTracker) walkStmts(stmts []ast.Stmt) bool {
	for _, s := range stmts {
		if tr.walkStmt(s) {
			return true
		}
	}
	return false
}

func (tr *pktTracker) walkStmt(s ast.Stmt) bool {
	switch x := s.(type) {
	case *ast.ExprStmt:
		tr.handleExpr(x.X, false)
	case *ast.AssignStmt:
		tr.walkAssign(x)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						tr.define(name, vs.Values[i])
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			tr.handleExpr(r, true)
		}
		tr.leakCheck(x.Pos())
		return true
	case *ast.IfStmt:
		if x.Init != nil {
			tr.walkStmt(x.Init)
		}
		tr.handleExpr(x.Cond, false)
		thenTr := tr.clone()
		thenTerm := thenTr.walkStmts(x.Body.List)
		elseTr := tr.clone()
		elseTerm := false
		if x.Else != nil {
			elseTerm = elseTr.walkStmt(x.Else)
		}
		tr.merge(thenTr, thenTerm, elseTr, elseTerm)
		return thenTerm && elseTerm
	case *ast.BlockStmt:
		return tr.walkStmts(x.List)
	case *ast.SwitchStmt:
		if x.Init != nil {
			tr.walkStmt(x.Init)
		}
		tr.handleExpr(x.Tag, false)
		return tr.walkClauses(x.Body.List, hasDefaultClause(x.Body.List))
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			tr.walkStmt(x.Init)
		}
		return tr.walkClauses(x.Body.List, hasDefaultClause(x.Body.List))
	case *ast.SelectStmt:
		return tr.walkClauses(x.Body.List, true)
	case *ast.ForStmt:
		tr.walkLoop(x.Init, x.Cond, x.Post, x.Body)
	case *ast.RangeStmt:
		tr.handleExpr(x.X, false)
		tr.walkLoop(nil, nil, nil, x.Body)
	case *ast.SendStmt:
		tr.handleExpr(x.Chan, false)
		tr.handleExpr(x.Value, true)
	case *ast.GoStmt:
		tr.handleCall(x.Call)
		for _, arg := range x.Call.Args {
			tr.handleExpr(arg, true)
		}
	case *ast.DeferStmt:
		// defer e.FreePacket(p) discharges the obligation at function exit;
		// stop tracking rather than modeling deferred execution order.
		if id := tr.freeCall(x.Call); id != nil {
			tr.states[tr.pass.Info.Uses[id]] = pktEscaped
			return false
		}
		for _, arg := range x.Call.Args {
			tr.handleExpr(arg, true)
		}
	case *ast.LabeledStmt:
		return tr.walkStmt(x.Stmt)
	case *ast.BranchStmt:
		// break/continue/goto leave the straight-line walk; treat like a
		// terminated branch so the post-merge state stays honest.
		return true
	case *ast.IncDecStmt:
		tr.handleExpr(x.X, false)
	}
	return false
}

func hasDefaultClause(clauses []ast.Stmt) bool {
	for _, c := range clauses {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// walkClauses runs each case body from a clone of the pre-state and merges
// the fall-through results. Without a default clause the pre-state itself is
// a possible outcome and joins the merge. Returns whether every possible
// outcome terminates the function.
func (tr *pktTracker) walkClauses(clauses []ast.Stmt, exhaustive bool) bool {
	type outcome struct {
		t    *pktTracker
		term bool
	}
	var outs []outcome
	for _, c := range clauses {
		ct := tr.clone()
		var term bool
		switch cc := c.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				ct.handleExpr(e, false)
			}
			term = ct.walkStmts(cc.Body)
		case *ast.CommClause:
			if cc.Comm != nil {
				ct.walkStmt(cc.Comm)
			}
			term = ct.walkStmts(cc.Body)
		}
		outs = append(outs, outcome{ct, term})
	}
	if !exhaustive {
		outs = append(outs, outcome{tr.clone(), false})
	}
	merged := false
	for _, o := range outs {
		if o.term {
			continue
		}
		if !merged {
			tr.states = o.t.states
			tr.freedPos = o.t.freedPos
			merged = true
			continue
		}
		tr.mergeInto(o.t)
	}
	return !merged && len(outs) > 0
}

// walkLoop walks a loop body once for intra-iteration diagnostics, then
// escapes every packet whose state the body changed: cross-iteration
// lifecycle reasoning is out of scope and must stay quiet.
func (tr *pktTracker) walkLoop(init ast.Stmt, cond ast.Expr, post ast.Stmt, body *ast.BlockStmt) {
	if init != nil {
		tr.walkStmt(init)
	}
	tr.handleExpr(cond, false)
	before := tr.clone()
	bt := tr.clone()
	bt.walkStmts(body.List)
	if post != nil {
		bt.walkStmt(post)
	}
	for obj, st := range bt.states {
		if prev, ok := before.states[obj]; !ok || prev != st {
			tr.states[obj] = pktEscaped
		}
	}
}

func (tr *pktTracker) walkAssign(x *ast.AssignStmt) {
	if len(x.Lhs) == len(x.Rhs) {
		for i := range x.Lhs {
			if id, ok := ast.Unparen(x.Lhs[i]).(*ast.Ident); ok {
				if tr.define(id, x.Rhs[i]) {
					continue
				}
				// Reassigning a tracked name to something else ends its
				// tracked life under this name.
				if obj := tr.pass.Info.Uses[id]; obj != nil {
					if _, tracked := tr.states[obj]; tracked {
						tr.handleExpr(x.Rhs[i], true)
						tr.states[obj] = pktEscaped
						continue
					}
				}
			}
			tr.handleExpr(x.Lhs[i], false)
			tr.handleExpr(x.Rhs[i], true)
		}
		return
	}
	for _, l := range x.Lhs {
		tr.handleExpr(l, false)
	}
	for _, r := range x.Rhs {
		tr.handleExpr(r, true)
	}
}

// define begins tracking lhs when rhs is an AllocPacket call. Returns true
// when it consumed the pair.
func (tr *pktTracker) define(lhs *ast.Ident, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || !tr.allocCall(call) {
		return false
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		tr.handleExpr(sel.X, false)
	}
	obj := tr.pass.Info.Defs[lhs]
	if obj == nil {
		obj = tr.pass.Info.Uses[lhs]
	}
	if obj == nil || !isPacketPtr(obj.Type()) {
		return true
	}
	tr.states[obj] = pktLive
	tr.local[obj] = true
	tr.allocPos[obj] = call.Pos()
	return true
}

// leakCheck reports locally allocated packets still live at a function exit.
func (tr *pktTracker) leakCheck(pos token.Pos) {
	type leak struct {
		obj types.Object
		at  token.Pos
	}
	var leaks []leak
	for obj, st := range tr.states {
		if st == pktLive && tr.local[obj] {
			//lint:ignore maporder order restored by the position sort below
			leaks = append(leaks, leak{obj, tr.allocPos[obj]})
		}
	}
	// Deterministic order across map iteration.
	for i := 1; i < len(leaks); i++ {
		for j := i; j > 0 && leaks[j].at < leaks[j-1].at; j-- {
			leaks[j], leaks[j-1] = leaks[j-1], leaks[j]
		}
	}
	for _, l := range leaks {
		ap := tr.pass.Fset.Position(l.at)
		tr.pass.Reportf(pos, "packet %s allocated at %s:%d is neither freed nor handed off on this path", l.obj.Name(), ap.Filename, ap.Line)
	}
}

func (tr *pktTracker) clone() *pktTracker {
	c := &pktTracker{
		pass:     tr.pass,
		states:   make(map[types.Object]pktState, len(tr.states)),
		local:    tr.local,
		allocPos: tr.allocPos,
		freedPos: make(map[types.Object]token.Pos, len(tr.freedPos)),
	}
	for k, v := range tr.states {
		c.states[k] = v
	}
	for k, v := range tr.freedPos {
		c.freedPos[k] = v
	}
	return c
}

// merge joins two branch outcomes back into tr.
func (tr *pktTracker) merge(a *pktTracker, aTerm bool, b *pktTracker, bTerm bool) {
	switch {
	case aTerm && bTerm:
		// Both branches left the function; whatever follows is dead. Keep
		// the pre-state (callers also see terminated=true).
	case aTerm:
		tr.states = b.states
		tr.freedPos = b.freedPos
	case bTerm:
		tr.states = a.states
		tr.freedPos = a.freedPos
	default:
		tr.states = a.states
		tr.freedPos = a.freedPos
		tr.mergeInto(b)
	}
}

// mergeInto folds another branch's outcome into tr: agreeing states stay,
// disagreeing states become Escaped (quiet — conditional frees are beyond
// the intraprocedural contract).
func (tr *pktTracker) mergeInto(other *pktTracker) {
	for obj, st := range tr.states {
		if other.states[obj] != st {
			tr.states[obj] = pktEscaped
		}
	}
	for obj, st := range other.states {
		if _, ok := tr.states[obj]; !ok && st != pktEscaped {
			tr.states[obj] = pktEscaped
		}
	}
}

// exprUsesObject reports whether node references obj (free-function form of
// Pass.exprUsesObj usable on statements).
func exprUsesObject(info *types.Info, node ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
