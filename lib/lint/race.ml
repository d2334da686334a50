(* Interprocedural concurrency-effect race analyzer (C1-C5).
   See race.mli for the rule set.

   Pass 1 walks every top-level definition into an effect summary.
   The walk threads a flow-sensitive lock state through sequences and
   let-chains: [Mutex.lock m] pushes the resolved identity of [m],
   [Mutex.unlock m] pops it, [Mutex.protect m f] brackets the walk of
   [f]'s body. Branches are walked with the entry state and join back
   to it (the repository convention is balanced lock/unlock per
   definition; an unbalanced branch only makes the analysis
   conservative, never silent). Lambdas are walked under the current
   lock state — [Fun.protect] runs its thunk immediately — except the
   deferred-execution closures (arguments of [Parallel.map/iter] and
   [Domain.spawn]), which start fresh root summaries with an empty
   lock state: a task never inherits its submitter's locks.

   Pass 2 runs Lint_ir.fixpoint over the call graph (transitive lock
   acquisition for C3, transitive Domain.DLS use for "domain-local"
   claim verification, transitive may-block for C4) and
   Lint_ir.reachable from the pool-task roots.

   Pass 3 emits C1-C5. Everything is emitted into one list and sorted
   through Lint_ir.sort_diagnostics, and all cross-function grouping
   (C2 lock-set comparison, C3 pair matching) sorts its sites first,
   so the report is identical under any file-visit order. *)

open Parsetree
open Lint_ir

(* Does the expression syntactically involve a Domain.DLS access?
   (Used for dls-derived bindings and the C5 escape check.) *)
let mentions_dls =
  exists_expr (fun e ->
      match e.pexp_desc with
      | Pexp_ident { txt; _ } -> (
          match Longident.flatten txt with
          | [ "Domain"; "DLS"; _ ] | [ "DLS"; _ ] -> true
          | _ -> false)
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Primitive tables                                                     *)

let is_atomic_prim d = has_prefix "Atomic." d

(* Module-level binding classification (pre-pass). *)
let dls_allocs = [ "Domain.DLS.new_key"; "DLS.new_key" ]

(* Blocking / allocating-heavy primitives for C4. [Condition.wait] is
   deliberately absent: it releases the mutex while waiting, which is
   the one blessed blocking-under-lock pattern. [Printf.sprintf] and
   friends are absent too — no shared channel involved. *)
let blocking_prims =
  [
    "input_line"; "input_char"; "input_byte"; "input_value"; "input";
    "really_input"; "really_input_string"; "read_line"; "read_int";
    "read_int_opt"; "read_float"; "read_float_opt";
    "open_in"; "open_in_bin"; "open_in_gen";
    "open_out"; "open_out_bin"; "open_out_gen";
    "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_int"; "print_float"; "print_bytes";
    "prerr_string"; "prerr_endline"; "prerr_newline"; "prerr_char";
    "output_string"; "output_char"; "output_bytes"; "output";
    "output_substring"; "output_value"; "flush"; "flush_all";
    "Printf.printf"; "Printf.eprintf"; "Printf.fprintf"; "Printf.kfprintf";
    "Printf.ifprintf"; "Format.printf"; "Format.eprintf"; "Format.fprintf";
    "Sys.command"; "Thread.delay"; "Domain.join";
  ]

let blocking_modules = [ "Unix"; "In_channel"; "Out_channel" ]

let blocking_head segs =
  let d = dotted segs in
  if List.mem d blocking_prims then Some d
  else
    match segs with
    | m :: _ :: _ when List.mem m blocking_modules -> Some d
    | _ -> None

(* ------------------------------------------------------------------ *)
(* Claims                                                               *)

type claim = {
  cl_mech : string;  (* "mutex" | "atomic" | "replay-log" | "domain-local" *)
  cl_lock : string option;  (* the NAME of a "mutex:NAME" payload *)
  cl_file : string;
  cl_loc : Location.t;
  mutable cl_used : bool;  (* some mutation was recorded in its scope *)
}

(* ------------------------------------------------------------------ *)
(* Summaries                                                            *)

type wclass =
  | W_local  (* freshly allocated in scope: never reported *)
  | W_param  (* rooted at a function parameter (caller-provided handle) *)
  | W_opaque  (* rooted at a let-bound value of unknown provenance *)
  | W_shared of string  (* resolved module-level identity *)
  | W_dls  (* rooted at a Domain.DLS.get result *)

type write = {
  w_prim : string;
  w_class : wclass;
  w_id : string option;  (* stable identity for C2 grouping *)
  w_atomic : bool;
  w_value_dls : bool;  (* stored value derives from Domain.DLS (C5) *)
  w_locks : string list;  (* held at the write, outermost first *)
  w_claim : claim option;
  w_loc : Location.t;
}

type call = {
  c_locks : string list;  (* held at the reference *)
  c_shielded : bool;  (* under a try body or a protect combinator *)
  c_loc : Location.t;
}

type info = {
  i_file : string;
  i_mod : string;
  mutable i_writes : write list;
  mutable i_calls : ((string * string) * call) list;
      (* (module ("" = same), name) edges, latest first *)
  mutable i_acquires : (string * Location.t) list;
  mutable i_pairs : (string * string * Location.t) list;
      (* (outer, inner): inner acquired while outer held, same body *)
  mutable i_blocking : (string * string list * Location.t) list;
  mutable i_dls : bool;
  (* pass-2 results *)
  mutable i_trans_dls : bool;
  mutable i_trans_acq : string list;
  mutable i_may_block : string option;  (* witness call chain *)
}

type global = {
  defs : info defs;  (* definitions and task roots *)
  mutable roots : info list;
  mutexes : (string * string, unit) Hashtbl.t;  (* module-level *)
      (* (Module, name) -> "mutex" | "atomic" | "dls-key" | "mutable" *)
  mutable claims : claim list;
  mutable diags : Lint.diagnostic list;
}

type ctx = {
  glob : global;
  fc : file;
  info : info;
  defname : string;
  in_root : bool;
  claim : claim option;  (* innermost enclosing [@cts.guarded] *)
  blocking_ok : bool;  (* [@cts.blocking_ok] in scope *)
  shielded : bool;  (* call edges made here are under a try body or a
                       Mutex.protect / Fun.protect combinator *)
}

let emit glob d = glob.diags <- d :: glob.diags

let new_info (fc : file) () =
  {
    i_file = fc.path;
    i_mod = fc.modname;
    i_writes = [];
    i_calls = [];
    i_acquires = [];
    i_pairs = [];
    i_blocking = [];
    i_dls = false;
    i_trans_dls = false;
    i_trans_acq = [];
    i_may_block = None;
  }

(* ------------------------------------------------------------------ *)
(* Environment                                                          *)

type kind = KFresh | KFn | KParam | KDls | KPlain

let rec kind_of_rhs e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> KFn
  | Pexp_record _ | Pexp_array _ -> KFresh
  | Pexp_apply (f, _) -> (
      match apply_head f with
      | Some segs ->
          let d = dotted segs in
          if List.mem d fresh_allocs then KFresh
          else if List.mem d dls_allocs || d = "DLS.get" then KDls
          else KPlain
      | None -> KPlain)
  | Pexp_constraint (e', _) | Pexp_lazy e' -> kind_of_rhs e'
  | _ -> if mentions_dls e then KDls else KPlain

let bind_params = bind KParam
let bind_plain = bind KPlain

(* ------------------------------------------------------------------ *)
(* Attributes                                                           *)

let guards_of_attrs ctx (attrs : attributes) =
  List.fold_left
    (fun ctx (a : attribute) ->
      match a.attr_name.Location.txt with
      | "cts.guarded" -> (
          match Option.bind (string_payload a.attr_payload) mechanism with
          | Some (mech, lock) ->
              let cl =
                {
                  cl_mech = mech;
                  cl_lock = lock;
                  cl_file = ctx.fc.path;
                  cl_loc = a.attr_loc;
                  cl_used = false;
                }
              in
              ctx.glob.claims <- cl :: ctx.glob.claims;
              { ctx with claim = Some cl }
          | None -> ctx (* malformed payloads are L1's job *))
      | "cts.blocking_ok" -> { ctx with blocking_ok = true }
      | _ -> ctx)
    ctx attrs

(* ------------------------------------------------------------------ *)
(* Identity resolution                                                  *)

(* Resolved identity of a lock expression (coarse, but exactly the
   granularity the repo's pool uses); locals and parameters get an
   opaque per-name identity. *)
let lock_id ctx env =
  resource_id ctx.fc ~local:(fun x ->
      Option.map
        (function
          | KParam | KPlain | KFn -> "<local:" ^ x ^ ">"
          | KFresh -> "<fresh:" ^ x ^ ">"
          | KDls -> "<dls:" ^ x ^ ">")
        (Env.find_opt x env))

(* Classify a mutation target: peel field projections down to the head
   identifier, then decide locality from the environment or resolve a
   module-level identity. *)
let classify_target ctx env (target : expression option) =
  match target with
  | None -> (W_opaque, None)
  | Some t ->
      let rec peel fields e =
        match e.pexp_desc with
        | Pexp_field (e', { txt; _ }) -> peel (Longident.last txt :: fields) e'
        | Pexp_constraint (e', _) -> peel fields e'
        | _ -> (fields, e)
      in
      let fields, base = peel [] t in
      let field_id () =
        match fields with [] -> None | f :: _ -> Some ("<." ^ f ^ ">")
      in
      (match base.pexp_desc with
      | Pexp_ident { txt = Longident.Lident x; _ } -> (
          match Env.find_opt x env with
          | Some KFresh -> (W_local, None)
          | Some KDls -> (W_dls, None)
          | Some (KParam | KFn) -> (W_param, field_id ())
          | Some KPlain -> (W_opaque, field_id ())
          | None ->
              let id = ctx.fc.modname ^ "." ^ x in
              (W_shared id, Some id))
      | Pexp_ident { txt; _ } -> (
          match ref_key ctx.fc (Longident.flatten txt) with
          | Some (m, x) ->
              let id = m ^ "." ^ x in
              (W_shared id, Some id)
          | None -> (W_opaque, field_id ()))
      | Pexp_apply (f, _) -> (
          (* A projection through a call: [ (current ()).counts ].
             DLS-returning callees make the target domain-local. *)
          match apply_head f with
          | Some segs when List.mem (dotted segs) dls_allocs -> (W_dls, None)
          | Some [ "Domain"; "DLS"; "get" ] | Some [ "DLS"; "get" ] ->
              (W_dls, None)
          | _ -> (W_opaque, field_id ()))
      | _ -> (W_opaque, field_id ()))

(* ------------------------------------------------------------------ *)
(* The walker                                                           *)

let add_call ctx locks edge loc =
  ctx.info.i_calls <-
    (edge, { c_locks = locks; c_shielded = ctx.shielded; c_loc = loc })
    :: ctx.info.i_calls

let note_ref ctx env locks (lid : Longident.t) loc =
  let segs = Longident.flatten lid in
  match (segs, ref_key ctx.fc segs) with
  | _, Some edge -> add_call ctx locks edge loc
  | [ x ], None -> (
      match Env.find_opt x env with
      | Some KFn ->
          (* Local function referenced from a pool-task lambda: link
             the root to the whole enclosing definition. *)
          if ctx.in_root then add_call ctx locks ("", ctx.defname) loc
      | Some _ -> ()
      | None -> add_call ctx locks ("", x) loc)
  | _ -> ()

let record_write ctx env locks ~prim ~atomic target value loc =
  let cls, id = classify_target ctx env target in
  (match ctx.claim with
  | Some cl when cls <> W_local -> cl.cl_used <- true
  | _ -> ());
  if cls <> W_local then
    ctx.info.i_writes <-
      {
        w_prim = prim;
        w_class = cls;
        w_id = id;
        w_atomic = atomic;
        w_value_dls =
          (match value with Some v -> mentions_dls v | None -> false)
          || (match value with
             | Some { pexp_desc = Pexp_ident { txt = Longident.Lident x; _ }; _ }
               ->
                 Env.find_opt x env = Some KDls
             | _ -> false);
        w_locks = locks;
        w_claim = ctx.claim;
        w_loc = loc;
      }
      :: ctx.info.i_writes

let acquire ctx locks l loc =
  ctx.info.i_acquires <- (l, loc) :: ctx.info.i_acquires;
  List.iter (fun h -> ctx.info.i_pairs <- (h, l, loc) :: ctx.info.i_pairs) locks;
  locks @ [ l ]

let release locks l =
  (* Drop the innermost occurrence. *)
  let rec go = function
    | [] -> []
    | x :: tl -> if x = l && not (List.mem l tl) then tl else x :: go tl
  in
  go locks

let mk_root ctx =
  let rinfo = new_info ctx.fc () in
  ctx.glob.roots <- rinfo :: ctx.glob.roots;
  add_node ctx.glob.defs rinfo;
  rinfo

(* [walk] returns the lock state after the expression so sequences and
   let-chains thread it. *)
let rec walk ctx env locks e : string list =
  let ctx = guards_of_attrs ctx e.pexp_attributes in
  match e.pexp_desc with
  | Pexp_ident { txt; _ } ->
      note_ref ctx env locks txt e.pexp_loc;
      (match txt with
      | Longident.Ldot (Longident.Ldot (Longident.Lident "Domain", "DLS"), _)
      | Longident.Ldot (Longident.Lident "DLS", _) ->
          ctx.info.i_dls <- true
      | _ -> ());
      locks
  | Pexp_apply (f, args) -> walk_apply ctx env locks e f args
  | Pexp_setfield (tgt, fld, v) ->
      record_write ctx env locks
        ~prim:
          (Printf.sprintf "%s <- (mutable field set)"
             (Longident.last fld.Location.txt))
        ~atomic:false
        (Some { e with pexp_desc = Pexp_field (tgt, fld) })
        (Some v) e.pexp_loc;
      let locks' = walk ctx env locks tgt in
      walk ctx env locks' v
  | Pexp_setinstvar (_, v) ->
      record_write ctx env locks ~prim:"<- (instance variable set)"
        ~atomic:false None (Some v) e.pexp_loc;
      walk ctx env locks v
  | Pexp_let (rf, vbs, body) ->
      let env', rhs_env =
        bind_let ~kind:kind_of_rhs ~plain:KPlain env rf vbs
      in
      let locks' =
        List.fold_left
          (fun lks vb ->
            let ctx = guards_of_attrs ctx vb.pvb_attributes in
            walk ctx rhs_env lks vb.pvb_expr)
          locks vbs
      in
      walk ctx env' locks' body
  | Pexp_fun (_, default, pat, body) ->
      Option.iter (fun d -> ignore (walk ctx env locks d)) default;
      ignore (walk ctx (bind_params env pat) locks body);
      locks
  | Pexp_function cases ->
      walk_cases ctx env locks cases;
      locks
  | Pexp_match (scrut, cases) ->
      (* [match e with ... | exception _ -> ...] handles like a try:
         calls in the scrutinee are shielded for the C4 raise rule. *)
      let handles =
        List.exists
          (fun c ->
            match c.pc_lhs.ppat_desc with
            | Ppat_exception _ -> true
            | _ -> false)
          cases
      in
      let locks' = walk { ctx with shielded = ctx.shielded || handles } env locks scrut in
      walk_cases ctx env locks' cases;
      locks'
  | Pexp_try (scrut, cases) ->
      (* Calls in the try body are shielded: an exception from them is
         caught (or observed and the lock released) right here. *)
      let locks' = walk { ctx with shielded = true } env locks scrut in
      walk_cases ctx env locks' cases;
      locks'
  | Pexp_ifthenelse (c, a, b) ->
      let locks' = walk ctx env locks c in
      ignore (walk ctx env locks' a);
      Option.iter (fun b -> ignore (walk ctx env locks' b)) b;
      locks'
  | Pexp_sequence (a, b) ->
      let locks' = walk ctx env locks a in
      walk ctx env locks' b
  | Pexp_while (c, body) ->
      let locks' = walk ctx env locks c in
      ignore (walk ctx env locks' body);
      locks'
  | Pexp_for (pat, lo, hi, _, body) ->
      let locks' = walk ctx env locks lo in
      let locks' = walk ctx env locks' hi in
      ignore (walk ctx (bind_plain env pat) locks' body);
      locks'
  | _ ->
      walk_children bind_plain
        (fun env e -> ignore (walk ctx env locks e))
        env e;
      locks

and walk_cases ctx env locks cases =
  List.iter
    (walk_case bind_plain (fun env e -> ignore (walk ctx env locks e)) env)
    cases

and walk_closure_as_root ctx env arg =
  (* Deferred-execution closure: its effects belong to a fresh root
     summary and it never inherits the submitter's lock state. *)
  if is_closure arg then
    let rinfo = mk_root ctx in
    ignore (walk { ctx with info = rinfo; in_root = true } env [] arg)
  else ignore (walk ctx env [] arg)

and walk_apply ctx env locks e f args =
  match apply_head f with
  | None ->
      let locks' = walk ctx env locks f in
      List.fold_left (fun lks (_, a) -> walk ctx env lks a) locks' args
  | Some segs -> (
      let d = dotted segs in
      let pos = nolabel_args args in
      match (d, pos) with
      | "Mutex.lock", m :: _ ->
          ignore (walk ctx env locks m);
          acquire ctx locks (lock_id ctx env m) e.pexp_loc
      | "Mutex.unlock", m :: _ ->
          ignore (walk ctx env locks m);
          release locks (lock_id ctx env m)
      | "Mutex.protect", m :: rest ->
          ignore (walk ctx env locks m);
          let inner = acquire ctx locks (lock_id ctx env m) e.pexp_loc in
          let ctx = { ctx with shielded = true } in
          List.iter (fun a -> ignore (walk ctx env inner a)) rest;
          locks
      | "Fun.protect", _ ->
          (* ~finally runs on unwind: calls inside are exception-safe
             with respect to lock leaks. *)
          let ctx = { ctx with shielded = true } in
          List.iter (fun (_, a) -> ignore (walk ctx env locks a)) args;
          locks
      | _, args' when task_of ctx.fc segs = Some Spawn ->
          List.iter (walk_closure_as_root ctx env) args';
          locks
      | _ ->
          let is_pool_submit = task_of ctx.fc segs = Some Pool in
          (* Mutation primitives. *)
          (match List.assoc_opt d write_prims with
          | Some (tgt_idx, val_idx) ->
              let target = List.nth_opt pos tgt_idx in
              let value =
                Option.bind val_idx (fun i -> List.nth_opt pos i)
              in
              record_write ctx env locks ~prim:d ~atomic:(is_atomic_prim d)
                target value e.pexp_loc
          | None -> ());
          (* Blocking calls. *)
          (match blocking_head segs with
          | Some b when not ctx.blocking_ok ->
              ctx.info.i_blocking <- (b, locks, e.pexp_loc) :: ctx.info.i_blocking
          | _ -> ());
          ignore (walk ctx env locks f);
          if is_pool_submit then begin
            let walk_here a = ignore (walk ctx env locks a) in
            iter_pool_args args ~other:walk_here ~closure:(fun a ->
                walk_closure_as_root ctx env a;
                (* A name is both callable from the task and a reference
                   recorded normally. *)
                match a.pexp_desc with Pexp_ident _ -> walk_here a | _ -> ());
            locks
          end
          else
            List.fold_left (fun lks (_, a) -> walk ctx env lks a) locks args)

(* ------------------------------------------------------------------ *)
(* Structure passes                                                     *)

(* Pre-pass: module-level mutexes, for "mutex:NAME" claims. *)
let classify_toplevel glob (fc : file) (str : structure) =
  iter_bindings
    (fun b ->
      let rec head e =
        match e.pexp_desc with
        | Pexp_apply (f, _) -> apply_head f
        | Pexp_constraint (e', _) -> head e'
        | _ -> None
      in
      match (b.vb, head b.expr) with
      | Some { pvb_pat = { ppat_desc = Ppat_var _; _ }; _ }, Some segs
        when dotted segs = "Mutex.create" ->
          Hashtbl.replace glob.mutexes (fc.modname, b.name) ()
      | _ -> ())
    str

let do_structure glob (fc : file) (str : structure) =
  iter_bindings
    (fun b ->
      let info =
        def glob.defs (fc.modname, b.name) (new_info fc)
      in
      let ctx =
        {
          glob;
          fc;
          info;
          defname = b.name;
          in_root = false;
          claim = None;
          blocking_ok = false;
          shielded = false;
        }
      in
      ignore (walk (guards_of_attrs ctx b.attrs) Env.empty [] b.expr))
    str

(* ------------------------------------------------------------------ *)
(* Pass 2: fixpoints and reachability                                   *)

let modname i = i.i_mod
let edges i = i.i_calls

(* Transitive DLS use, lock acquisition and may-block witness flow
   from callee to caller. *)
let transfer info key _ callee =
  let changed = ref false in
  if callee.i_trans_dls && not info.i_trans_dls then begin
    info.i_trans_dls <- true;
    changed := true
  end;
  List.iter
    (fun l ->
      if not (List.mem l info.i_trans_acq) then begin
        info.i_trans_acq <- l :: info.i_trans_acq;
        changed := true
      end)
    callee.i_trans_acq;
  (match (callee.i_may_block, info.i_may_block) with
  | Some w, None ->
      info.i_may_block <- Some (chain key w);
      changed := true
  | _ -> ());
  !changed

let seed_fixpoint infos =
  List.iter
    (fun info ->
      if info.i_dls then info.i_trans_dls <- true;
      List.iter
        (fun (l, _) ->
          if not (List.mem l info.i_trans_acq) then
            info.i_trans_acq <- l :: info.i_trans_acq)
        info.i_acquires;
      match info.i_blocking with
      | (b, _, _) :: _ -> info.i_may_block <- Some b
      | [] -> ())
    infos

(* ------------------------------------------------------------------ *)
(* Pass 3: diagnostics                                                  *)

let known_mutex glob name =
  Hashtbl.fold
    (fun (m, n) () acc -> acc || n = name || m ^ "." ^ n = name)
    glob.mutexes false

let lock_matches name l = l = name || has_suffix ("." ^ name) l

let describe_target w =
  match w.w_id with
  | Some id -> Printf.sprintf "%s (%s)" w.w_prim id
  | None -> w.w_prim

let mechanism_list =
  "\"replay-log\"|\"mutex[:NAME]\"|\"atomic\"|\"domain-local\""

(* C1: every shared mutation reachable from a pool task must be
   provably protected; [@cts.guarded] claims are verified, never
   trusted. Claim verification runs over ALL summaries — a claim is a
   concurrency-safety statement whether or not today's call graph
   reaches it from a task; only the unclaimed-unguarded-write
   diagnostic is gated on task reachability. *)
let report_c1 glob infos reached =
  List.iter
    (fun info ->
      let task_reached = List.memq info reached in
      List.iter
        (fun w ->
          let claim_desc cl =
            match cl.cl_lock with
            | Some n -> Printf.sprintf "\"mutex:%s\"" n
            | None -> Printf.sprintf "%S" cl.cl_mech
          in
          let emit msg = emit glob (diag_at "C1" info.i_file w.w_loc msg) in
          if w.w_atomic then ()
          else if w.w_locks <> [] then begin
            match w.w_claim with
            | Some ({ cl_mech = "mutex"; cl_lock = Some name; _ } as cl) ->
                if
                  known_mutex glob name
                  && not (List.exists (lock_matches name) w.w_locks)
                then
                  emit
                    (Printf.sprintf
                       "[@cts.guarded %s] not verified: %s executes under \
                        {%s}, not under mutex %s"
                       (claim_desc cl) (describe_target w)
                       (String.concat ", " w.w_locks)
                       name)
            | _ -> ()
          end
          else begin
            match w.w_claim with
            | _ when w.w_class = W_dls -> ()
            | Some { cl_mech = "domain-local"; _ } when info.i_trans_dls -> ()
            | Some { cl_mech = "replay-log"; _ } when w.w_class = W_param -> ()
            | Some ({ cl_mech = "domain-local"; _ } as cl) ->
                emit
                  (Printf.sprintf
                     "[@cts.guarded %s] not verified: %s but no Domain.DLS \
                      access on the path"
                     (claim_desc cl) (describe_target w))
            | Some ({ cl_mech = "replay-log"; _ } as cl) ->
                emit
                  (Printf.sprintf
                     "[@cts.guarded %s] not verified: %s writes module-level \
                      state, not a caller-provided log"
                     (claim_desc cl) (describe_target w))
            | Some ({ cl_mech = "atomic"; _ } as cl) ->
                emit
                  (Printf.sprintf
                     "[@cts.guarded %s] not verified: %s is not an Atomic.* \
                      operation"
                     (claim_desc cl) (describe_target w))
            | Some ({ cl_mech = "mutex"; _ } as cl) ->
                emit
                  (Printf.sprintf
                     "[@cts.guarded %s] not verified: %s executes with no \
                      mutex held on the actual path"
                     (claim_desc cl) (describe_target w))
            | Some _ | None ->
                if task_reached then
                  emit
                    (Printf.sprintf
                       "%s writes shared state reachable from a Parallel \
                        pool task with no lock held, no atomic primitive \
                        and no verifiable [@cts.guarded %s] mechanism on \
                        the path"
                       (describe_target w) mechanism_list)
          end)
        info.i_writes)
    infos

(* Claim-level checks: a "mutex:NAME" payload must name a module-level
   mutex that exists; a claim whose scope performs no mutation is
   stale. Emitted over the sorted claim list for determinism. *)
let report_claims glob =
  let claims =
    List.sort_uniq
      (fun a b ->
        compare
          (a.cl_file, line_col a.cl_loc, a.cl_mech, a.cl_lock)
          (b.cl_file, line_col b.cl_loc, b.cl_mech, b.cl_lock))
      glob.claims
  in
  List.iter
    (fun cl ->
      let d message = emit glob (diag_at "C1" cl.cl_file cl.cl_loc message) in
      match cl.cl_lock with
      | Some name when not (known_mutex glob name) ->
          d
            (Printf.sprintf
               "[@cts.guarded \"mutex:%s\"] names no module-level mutex \
                (no `let %s = Mutex.create ()` found)"
               name name)
      | _ ->
          if not cl.cl_used then
            d
              (Printf.sprintf
                 "stale [@cts.guarded %S%s]: the annotated code performs no \
                  shared mutation; remove the annotation"
                 cl.cl_mech
                 (match cl.cl_lock with
                 | Some n -> Printf.sprintf " (mutex %s)" n
                 | None -> "")))
    claims

(* C2: the same shared state written under disjoint non-empty lock
   sets at two sites. *)
let report_c2 glob infos =
  let sites : (string, (string * Location.t * string list) list) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun info ->
      List.iter
        (fun w ->
          if w.w_locks <> [] && not w.w_atomic then
            match w.w_id with
            | Some id ->
                let prev =
                  match Hashtbl.find_opt sites id with
                  | Some l -> l
                  | None -> []
                in
                Hashtbl.replace sites id
                  ((info.i_file, w.w_loc, w.w_locks) :: prev)
            | None -> ())
        info.i_writes)
    infos;
  let ids = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) sites []) in
  List.iter
    (fun id ->
      let entries =
        List.sort_uniq compare
          (List.map
             (fun (f, loc, lks) ->
               let l, c = line_col loc in
               (f, l, c, lks))
             (Hashtbl.find sites id))
      in
      match entries with
      | [] | [ _ ] -> ()
      | (f0, l0, c0, locks0) :: rest ->
          List.iter
            (fun (f, l, c, locks) ->
              if not (List.exists (fun x -> List.mem x locks0) locks) then
                emit glob
                  {
                    rule = "C2";
                    file = f;
                    line = l;
                    col = c;
                    message =
                      Printf.sprintf
                        "inconsistent lock set: %s is guarded by {%s} here \
                         but by {%s} at %s:%d:%d"
                        id
                        (String.concat ", " locks)
                        (String.concat ", " locks0)
                        f0 l0 c0;
                  })
            rest)
    ids

(* C3: lock-order inversion (and non-reentrant re-acquisition). Pair
   sources: local pairs, plus (held, transitively-acquired-by-callee)
   at every call site made under a lock. *)
let report_c3 glob infos =
  let pairs : (string * string, string * Location.t) Hashtbl.t =
    Hashtbl.create 64
  in
  let add outer inner who loc =
    let key = (outer, inner) in
    let better (f, l) (f', l') =
      compare (f, line_col l) (f', line_col l') < 0
    in
    match Hashtbl.find_opt pairs key with
    | Some (f, l) when better (f, l) (who, loc) -> ()
    | _ -> Hashtbl.replace pairs key (who, loc)
  in
  List.iter
    (fun info ->
      List.iter (fun (o, i, loc) -> add o i info.i_file loc) info.i_pairs;
      List.iter
        (fun (edge, c) ->
          if c.c_locks <> [] then
            match callee glob.defs info.i_mod edge with
            | _, None -> ()
            | _, Some callee ->
                List.iter
                  (fun h ->
                    List.iter
                      (fun l -> add h l info.i_file c.c_loc)
                      callee.i_trans_acq)
                  c.c_locks)
        info.i_calls)
    infos;
  let entries =
    List.sort compare
      (Hashtbl.fold
         (fun (o, i) (f, loc) acc ->
           let l, c = line_col loc in
           ((o, i), (f, l, c)) :: acc)
         pairs [])
  in
  List.iter
    (fun ((o, i), (f, line, col)) ->
      let d message = emit glob { rule = "C3"; file = f; line; col; message } in
      if o = i then
        d
          (Printf.sprintf
             "lock %s acquired while already held (OCaml mutexes are not \
              reentrant: self-deadlock)"
             o)
      else if o < i then
        match List.assoc_opt (i, o) entries with
        | Some (f', l', c') ->
            d
              (Printf.sprintf
                 "lock-order inversion: %s is acquired under %s here, but \
                  %s under %s at %s:%d:%d"
                 i o o i f' l' c')
        | None -> ())
    entries

(* C4: blocking call while holding a lock — directly, or via a callee
   that may block. Given the exception-flow analyzer's may-raise table
   ([raises]), also a call made while holding a lock, outside any try
   body or protect combinator, to a callee whose inferred
   [@cts.raises] effect set is non-empty — a raise there unwinds past
   the unlock and leaks the lock. *)
let report_c4 glob infos raises =
  let may_raise = Hashtbl.create (List.length raises) in
  List.iter (fun (k, exns) -> Hashtbl.replace may_raise k exns) raises;
  List.iter
    (fun info ->
      List.iter
        (fun (prim, locks, loc) ->
          if locks <> [] then
            emit glob @@ diag_at "C4" info.i_file loc
              (Printf.sprintf
                 "blocking call %s while holding {%s}; move the I/O outside \
                  the critical section or annotate [@cts.blocking_ok]"
                 prim
                 (String.concat ", " locks)))
        info.i_blocking;
      List.iter
        (fun (edge, c) ->
          if c.c_locks <> [] then begin
            let (m, n), target = callee glob.defs info.i_mod edge in
            let locks = String.concat ", " c.c_locks in
            (match target with
            | Some { i_may_block = Some witness; _ } ->
                emit glob @@ diag_at "C4" info.i_file c.c_loc
                  (Printf.sprintf
                     "call to %s.%s may block (%s) while holding {%s}; move \
                      the I/O outside the critical section or annotate \
                      [@cts.blocking_ok]"
                     m n witness locks)
            | _ -> ());
            match Hashtbl.find_opt may_raise (m, n) with
            | Some (_ :: _ as exns) when not c.c_shielded ->
                emit glob @@ diag_at "C4" info.i_file c.c_loc
                  (Printf.sprintf
                     "call to %s.%s may raise (%s) while holding {%s}: a \
                      raise here unwinds past the unlock and leaks the lock; \
                      wrap the critical section in Mutex.protect or catch \
                      and release"
                     m n (String.concat ", " exns) locks)
            | _ -> ()
          end)
        info.i_calls)
    infos

(* C5: a Domain.DLS-derived value stored into shared mutable state. *)
let report_c5 glob infos =
  List.iter
    (fun info ->
      List.iter
        (fun w ->
          match w.w_class with
          | W_shared id when w.w_value_dls ->
              emit glob @@ diag_at "C5" info.i_file w.w_loc
                (Printf.sprintf
                   "Domain.DLS-derived value stored into shared state %s: \
                    domain-local data must not escape its domain"
                   id)
          | _ -> ())
        info.i_writes)
    infos

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)

let check_ir ?(raises = []) ir =
  let glob =
    {
      defs = create_defs ();
      roots = [];
      mutexes = Hashtbl.create 16;
      claims = [];
      diags = syntax_errors ~interfaces:false ir;
    }
  in
  let parsed = implementations ir in
  (* Pre-pass before any walk: claim verification and lock resolution
     consult the module-level tables across files. *)
  List.iter (fun (fc, str) -> classify_toplevel glob fc str) parsed;
  List.iter (fun (fc, str) -> do_structure glob fc str) parsed;
  let infos = nodes glob.defs in
  seed_fixpoint infos;
  fixpoint glob.defs ~modname ~edges ~transfer infos;
  let reached = reachable glob.defs ~modname ~edges (List.rev glob.roots) in
  report_c1 glob infos reached;
  report_claims glob;
  report_c2 glob infos;
  report_c3 glob infos;
  report_c4 glob infos raises;
  report_c5 glob infos;
  sort_diagnostics glob.diags

let check_sources ?raises sources = check_ir ?raises (of_sources sources)
let check_paths ?raises paths = check_ir ?raises (of_paths paths)
