(* Determinism / domain-safety lint. See lint.mli for the rule set.

   The analysis is purely syntactic (the Lint_ir parsetree, no
   typing). Its one non-local part is rule L1: a module-level
   call-graph approximation. Each top-level definition is walked once,
   recording (a) mutation primitives applied to targets that are not
   provably task-local and (b) references that may resolve to other
   top-level definitions. Call sites of [Parallel.map]/[Parallel.iter]
   re-walk their function arguments into separate "root" records; L1
   then reports every unguarded shared mutation Lint_ir.reachable from
   a root through the recorded edges.

   Locality: a target is task-local when its head identifier is
   let-bound in scope to a syntactically fresh mutable allocation
   ([ref e], [Hashtbl.create], a record or array literal, ...).
   Parameters and module-level names are conservatively shared:
   writing through them from a pool task needs a [@cts.guarded]
   mechanism annotation. *)

open Parsetree
open Lint_ir

type diagnostic = Lint_ir.diagnostic = {
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
}

let to_string = Lint_ir.to_string
let compare_diagnostic = Lint_ir.compare_diagnostic
let sort_diagnostics = Lint_ir.sort_diagnostics
let normalize_path = Lint_ir.normalize_path

(* ------------------------------------------------------------------ *)
(* Rule scopes                                                         *)

let l2_exempt path =
  has_suffix "lib/util/rng.ml" path
  || has_suffix "lib/bmark/synthetic.ml" path
  || path = "rng.ml" || path = "synthetic.ml"

(* The observability clock (lib/obs/obs_clock.ml) is the single blessed
   wall-clock module: everything else in lib/ must go through Obs.Clock
   so timing side-effects stay confined to one auditable site. *)
let l3_in_scope path =
  has_prefix "lib/" path
  && (not (has_prefix "lib/report/" path))
  && (not (has_prefix "lib/bench/" path))
  && not (has_suffix "lib/obs/obs_clock.ml" path)

let l4_in_scope path =
  has_prefix "lib/cts_core/" path
  || has_prefix "lib/dme/" path
  || has_prefix "lib/numerics/" path
  || has_prefix "lib/qor/" path

let l5_in_scope path = has_prefix "lib/" path

(* ------------------------------------------------------------------ *)
(* Primitive tables                                                    *)

(* Allocators that make a module stateful for rule L5 (deliberately
   narrower: a local [Array.of_list] scratchpad is not "module holds
   mutable state", but any ref cell, table, queue or lock is). *)
let l5_allocs =
  [
    "ref"; "Hashtbl.create"; "Queue.create"; "Buffer.create";
    "Stack.create"; "Atomic.make"; "Mutex.create"; "Condition.create";
  ]

let wallclock = [ "Unix.gettimeofday"; "Unix.time"; "Sys.time" ]

let float_ops =
  [
    "+."; "-."; "*."; "/."; "**"; "~-."; "sqrt"; "exp"; "log"; "log10";
    "atan"; "atan2"; "cos"; "sin"; "abs_float"; "float_of_int";
    "float_of_string"; "Float.abs"; "Float.max"; "Float.min"; "Float.neg";
    "Float.add"; "Float.sub"; "Float.mul"; "Float.div"; "Float.rem";
    "Float.pow"; "Float.sqrt"; "Float.exp"; "Float.log"; "Float.of_int";
    "Float.of_string"; "Float.round"; "Float.ceil"; "Float.floor";
  ]

(* ------------------------------------------------------------------ *)
(* Analysis state                                                      *)

type mut = { prim : string; mloc : Location.t; mguard : string option }

type info = {
  i_file : string;
  i_mod : string;
  mutable i_muts : mut list;  (* shared-target mutations only *)
  mutable i_calls : (string * string) list;
      (* ("", n): top-level [n] of the same module; (m, n): value [n]
         of module [m] (aliases already resolved). *)
}

type fctx = { file : Lint_ir.file; mutable f_mutable : bool (* L5 *) }

type global = {
  defs : info defs;
  mutable roots : info list;
  mutable diags : diagnostic list;
}

type ctx = {
  glob : global;
  fc : fctx;
  info : info;
  defname : string;  (* top-level definition being walked *)
  in_root : bool;
}

let diag ctx rule loc message =
  ctx.glob.diags <- diag_at rule ctx.fc.file.path loc message :: ctx.glob.diags

let new_info (fc : fctx) () =
  { i_file = fc.file.path; i_mod = fc.file.modname; i_muts = []; i_calls = [] }

(* ------------------------------------------------------------------ *)
(* Environment: locally-bound names                                    *)

type kind = KFresh | KFn | KPlain

let bind_plain = bind KPlain

(* ------------------------------------------------------------------ *)
(* Syntactic helpers                                                   *)

let rec head_ident e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } -> Some x
  | Pexp_field (e', _) -> head_ident e'
  | Pexp_constraint (e', _) -> head_ident e'
  | _ -> None

let rec is_floatish e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_apply (f, _) -> (
      match apply_head f with
      | Some segs -> List.mem (dotted segs) float_ops
      | None -> false)
  | Pexp_constraint (e', t) -> (
      match t.ptyp_desc with
      | Ptyp_constr ({ txt = Longident.Lident "float"; _ }, _) -> true
      | _ -> is_floatish e')
  | Pexp_ifthenelse (_, a, Some b) -> is_floatish a || is_floatish b
  | _ -> false

let rec kind_of_rhs e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> KFn
  | Pexp_record _ | Pexp_array _ -> KFresh
  | Pexp_apply (f, _) -> (
      match apply_head f with
      | Some segs when List.mem (dotted segs) fresh_allocs -> KFresh
      | _ -> KPlain)
  | Pexp_constraint (e', _) -> kind_of_rhs e'
  | Pexp_lazy e' -> kind_of_rhs e'
  | _ -> KPlain

(* ------------------------------------------------------------------ *)
(* Attributes                                                          *)

type guards = { guard : string option; feq : bool }

let guards_of_attrs ctx g attrs =
  List.fold_left
    (fun g (a : attribute) ->
      match a.attr_name.Location.txt with
      | "cts.guarded" -> (
          (* A "mutex:NAME" payload names the specific lock; the race
             analyzer (race.ml) verifies the name, L1 only accepts the
             shape. *)
          match Option.bind (string_payload a.attr_payload) mechanism with
          | Some (m, _) -> { g with guard = Some m }
          | None ->
              diag ctx "L1" a.attr_loc
                "[@cts.guarded] must name its mechanism: \"replay-log\", \
                 \"mutex[:NAME]\", \"atomic\" or \"domain-local\"";
              g)
      | "cts.float_eq_ok" -> { g with feq = true }
      | _ -> g)
    g attrs

(* ------------------------------------------------------------------ *)
(* Reference notes: call edges + L2/L3                                 *)

let add_call ctx edge =
  if not (List.mem edge ctx.info.i_calls) then
    ctx.info.i_calls <- edge :: ctx.info.i_calls

let note_ref ctx env (lid : Longident.t) loc =
  let segs = Longident.flatten lid in
  match (segs, qualified segs) with
  | [ x ], _ -> (
      match Env.find_opt x env with
      | Some KFn ->
          (* Reference to a local function from inside a pool-task
             lambda: its body was analyzed as part of the enclosing
             top-level definition, so link the root to that whole
             definition (conservative). *)
          if ctx.in_root then add_call ctx ("", ctx.defname)
      | Some (KFresh | KPlain) -> ()
      | None -> add_call ctx ("", x))
  | _, Some (mods, m, name) ->
      let path = ctx.fc.file.path in
      (* L2: any Random/Rng module segment. *)
      if
        List.exists (fun m -> m = "Random" || m = "Rng") mods
        && not (l2_exempt path)
      then
        diag ctx "L2" loc
          (Printf.sprintf
             "%s: randomness outside lib/util/rng.ml and \
              lib/bmark/synthetic.ml breaks determinism"
             (String.concat "." segs));
      (* L3: wall-clock in lib/ outside report/bench. *)
      let d = dotted segs in
      if List.mem d wallclock && l3_in_scope path then
        diag ctx "L3" loc
          (Printf.sprintf
             "wall-clock call %s in lib/ (allowed only under lib/report, \
              lib/bench and Obs.Clock)"
             d);
      add_call ctx (resolve_alias ctx.fc.file m, name)
  | _, None -> ()

(* ------------------------------------------------------------------ *)
(* The walker                                                          *)

let record_mut ctx env g prim (target : expression option) loc =
  ctx.fc.f_mutable <- true;
  let local =
    match target with
    | Some t -> (
        match head_ident t with
        | Some x -> Env.find_opt x env = Some KFresh
        | None -> false)
    | None -> false
  in
  if not local then
    ctx.info.i_muts <- { prim; mloc = loc; mguard = g.guard } :: ctx.info.i_muts

let rec walk ctx env g e =
  let g = guards_of_attrs ctx g e.pexp_attributes in
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> note_ref ctx env txt e.pexp_loc
  | Pexp_apply (f, args) ->
      (match apply_head f with
      | Some segs ->
          let d = dotted segs in
          let pos = nolabel_args args in
          (* Mutation primitives. *)
          (match List.assoc_opt d write_prims with
          | Some (idx, _) ->
              let target = List.nth_opt pos idx in
              record_mut ctx env g d target e.pexp_loc
          | None ->
              if List.mem d l5_allocs then ctx.fc.f_mutable <- true);
          (* L4: float equality. *)
          (match (d, pos) with
          | ("=" | "<>"), [ a; b ]
            when l4_in_scope ctx.fc.file.path
                 && (is_floatish a || is_floatish b)
                 && not g.feq ->
              diag ctx "L4" e.pexp_loc
                (Printf.sprintf
                   "float equality %s: use an epsilon helper \
                    (Numerics.Float_cmp) or annotate [@cts.float_eq_ok]"
                   d)
          | _ -> ());
          (* Pool-task roots: every positional closure or name. *)
          if task_of ctx.fc.file segs = Some Pool then
            List.iter
              (fun arg ->
                if is_closure arg then begin
                  let rinfo = new_info ctx.fc () in
                  ctx.glob.roots <- rinfo :: ctx.glob.roots;
                  walk { ctx with info = rinfo; in_root = true } env g arg
                end)
              pos
      | None -> ());
      walk ctx env g f;
      List.iter (fun (_, a) -> walk ctx env g a) args
  | Pexp_setfield (tgt, _, v) ->
      record_mut ctx env g "<- (mutable field set)" (Some tgt) e.pexp_loc;
      walk ctx env g tgt;
      walk ctx env g v
  | Pexp_setinstvar (_, v) ->
      record_mut ctx env g "<- (instance variable set)" None e.pexp_loc;
      walk ctx env g v
  | Pexp_let (rf, vbs, body) ->
      let env', rhs_env =
        bind_let ~kind:kind_of_rhs ~plain:KPlain env rf vbs
      in
      List.iter
        (fun vb ->
          let g' = guards_of_attrs ctx g vb.pvb_attributes in
          walk ctx rhs_env g' vb.pvb_expr)
        vbs;
      walk ctx env' g body
  | Pexp_fun (_, default, pat, body) ->
      Option.iter (walk ctx env g) default;
      walk ctx (bind_plain env pat) g body
  | Pexp_function cases -> walk_cases ctx env g cases
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
      walk ctx env g scrut;
      walk_cases ctx env g cases
  | Pexp_for (pat, lo, hi, _, body) ->
      walk ctx env g lo;
      walk ctx env g hi;
      walk ctx (bind_plain env pat) g body
  | _ ->
      (* No constructor left unhandled introduces value bindings that
         matter to locality (cases are caught above). *)
      walk_children bind_plain (fun env -> walk ctx env g) env e

and walk_cases ctx env g cases =
  List.iter (walk_case bind_plain (fun env -> walk ctx env g) env) cases

(* ------------------------------------------------------------------ *)
(* Structure pass                                                      *)

let type_decl_mutable fc (td : type_declaration) =
  (match td.ptype_kind with
  | Ptype_record lds ->
      List.iter
        (fun ld -> if ld.pld_mutable = Asttypes.Mutable then fc.f_mutable <- true)
        lds
  | _ -> ());
  let it =
    {
      Ast_iterator.default_iterator with
      typ =
        (fun it t ->
          (match t.ptyp_desc with
          | Ptyp_constr ({ txt; _ }, _) ->
              let segs = Longident.flatten txt in
              let d = dotted segs in
              if
                List.mem d
                  [
                    "Hashtbl.t"; "Queue.t"; "Buffer.t"; "Stack.t";
                    "Atomic.t"; "Mutex.t"; "Condition.t";
                  ]
                || d = "ref"
              then fc.f_mutable <- true
          | _ -> ());
          Ast_iterator.default_iterator.typ it t);
    }
  in
  it.type_declaration it td

let do_structure glob fc (str : structure) =
  iter_bindings
    ~other:(fun item ->
      match item.pstr_desc with
      | Pstr_type (_, tds) -> List.iter (type_decl_mutable fc) tds
      | _ -> ())
    (fun b ->
      let info =
        def glob.defs (fc.file.modname, b.name) (new_info fc)
      in
      let ctx = { glob; fc; info; defname = b.name; in_root = false } in
      let g = guards_of_attrs ctx { guard = None; feq = false } b.attrs in
      walk ctx Env.empty g b.expr)
    str

(* ------------------------------------------------------------------ *)
(* L1 reachability                                                     *)

let report_l1 glob =
  let reached =
    reachable glob.defs
      ~modname:(fun i -> i.i_mod)
      ~edges:(fun i -> List.map (fun e -> (e, ())) i.i_calls)
      glob.roots
  in
  List.iter
    (fun info ->
      List.iter
        (fun m ->
          if m.mguard = None then
            glob.diags <-
              diag_at "L1" info.i_file m.mloc
                (Printf.sprintf
                   "%s writes shared state reachable from a Parallel pool \
                    task; annotate the enclosing definition with \
                    [@cts.guarded \
                    \"replay-log\"|\"mutex\"|\"atomic\"|\"domain-local\"] or \
                    keep the target task-local"
                   m.prim)
              :: glob.diags)
        info.i_muts)
    reached

(* ------------------------------------------------------------------ *)
(* L5                                                                  *)

let report_l5 glob ir files =
  List.iter
    (fun fc ->
      let path = fc.file.path in
      if fc.f_mutable && l5_in_scope path then begin
        let mli_path = Filename.remove_extension path ^ ".mli" in
        match List.find_opt (fun (f : file) -> f.path = mli_path) ir with
        | None -> ()  (* no interface: nothing to document *)
        | Some mli ->
            if not (contains mli.text "Domain-safety:") then
              glob.diags <-
                {
                  rule = "L5";
                  file = mli_path;
                  line = 1;
                  col = 0;
                  message =
                    Printf.sprintf
                      "%s holds mutable state but its .mli has no \
                       'Domain-safety:' doc line"
                      fc.file.modname;
                }
                :: glob.diags
      end)
    files

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let lint_ir ir =
  let glob = { defs = create_defs (); roots = []; diags = [] } in
  let files =
    List.map
      (fun (file, str) ->
        let fc = { file; f_mutable = false } in
        do_structure glob fc str;
        fc)
      (implementations ir)
  in
  report_l1 glob;
  report_l5 glob ir files;
  sort_diagnostics (syntax_errors ~interfaces:false ir @ glob.diags)

let lint_sources sources = lint_ir (of_sources sources)
let lint_paths paths = lint_ir (of_paths paths)

let rec scan_one acc path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry ->
        if entry = "_build" || entry = ".git" || has_prefix "." entry then acc
        else scan_one acc (Filename.concat path entry))
      acc (Sys.readdir path)
  else if
    Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
  then path :: acc
  else acc

let scan paths =
  List.sort compare (List.fold_left scan_one [] paths)
