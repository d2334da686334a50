(* Interprocedural exception-flow & resource-safety analyzer (E1-E5).
   See exc.mli for the rule set.

   Pass 1 walks every top-level definition into a summary of raise
   sites and call edges. Each site snapshots the handler frames active
   around it (a [try]/[match-exception] subtracts the exceptions its
   enumerated cases catch; a catch-all absorbs everything; a catch-all
   that re-raises its variable — an observer — subtracts nothing) and
   the resource brackets open at the site ([Mutex.lock] .. [unlock],
   [open_in*] .. [close_in*]). [Mutex.protect] and [Fun.protect] are
   the blessed exception-safe forms and open no hazard. Let-bound
   lambdas become their own child summaries so a local closure's
   effects never pollute the enclosing definition until the closure is
   referenced; lambdas passed directly to HOF arguments are walked
   inline (stdlib HOFs apply them); [Parallel.map]/[Parallel.iter]
   task closures and [Domain.spawn] thunks start fresh task roots
   (with a coordinator edge back into the submitter, because
   [Parallel.map] re-raises the first task exception).

   Pass 2 seeds each summary's may-raise effect set from its local
   sites and the latent-exception table (partial stdlib calls), then
   runs Lint_ir.fixpoint over the call graph: a callee's effects
   flow through each call edge filtered by the handler frames active
   at the edge. Witness chains ("M.n -> raise Foo at file:l:c") are
   kept per exception. Two sets are computed: the full inferred
   may-raise set (E2 contract verification) and the undeclared set,
   where a definition's own [@cts.raises] contract subtracts what it
   documents (E1 only reports undocumented escapes).

   Pass 3 emits E1-E5. Everything lands in one list sorted through
   Lint_ir.sort_diagnostics; summaries are processed in sorted-source
   order, so the report is identical under any file-visit order.

   Deliberate trust boundaries (see DESIGN.md section 5k): array /
   string indexing and [assert] are excluded from the latent alphabet
   (the numeric kernels would make every effect set Invalid_argument);
   channel reads are charged End_of_file but not Sys_error; a
   re-raised handler variable is tracked for resource safety (E3) but
   not added to effect sets. *)

open Parsetree
open Lint_ir
module SS = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* Latent-exception alphabet                                            *)

(* Partial stdlib calls charged as latent exceptions. Array/string
   indexing and [assert] are deliberately absent (trust boundary);
   channel reads are End_of_file, not Sys_error. *)
let raising_prims =
  [
    ("Option.get", "Invalid_argument");
    ("List.hd", "Failure"); ("List.tl", "Failure");
    ("Hashtbl.find", "Not_found"); ("List.assoc", "Not_found");
    ("List.find", "Not_found"); ("String.index", "Not_found");
    ("String.rindex", "Not_found"); ("Sys.getenv", "Not_found");
    ("failwith", "Failure"); ("invalid_arg", "Invalid_argument");
    ("int_of_string", "Failure"); ("float_of_string", "Failure");
    ("open_in", "Sys_error"); ("open_in_bin", "Sys_error");
    ("open_in_gen", "Sys_error"); ("open_out", "Sys_error");
    ("open_out_bin", "Sys_error"); ("open_out_gen", "Sys_error");
    ("input_line", "End_of_file"); ("input_char", "End_of_file");
    ("input_byte", "End_of_file"); ("input_value", "End_of_file");
    ("really_input", "End_of_file"); ("really_input_string", "End_of_file");
    ("Queue.pop", "Queue.Empty"); ("Queue.take", "Queue.Empty");
    ("Queue.peek", "Queue.Empty");
    ("Stack.pop", "Stack.Empty"); ("Stack.top", "Stack.Empty");
  ]

(* The subset whose argument shape a dominating check can prove, and
   which E5 polices on task-reachable paths. *)
let e5_partials = [ "Option.get"; "List.hd"; "List.tl" ]

let open_prims =
  [ "open_in"; "open_in_bin"; "open_in_gen";
    "open_out"; "open_out_bin"; "open_out_gen" ]

let close_prims =
  [ "close_in"; "close_in_noerr"; "close_out"; "close_out_noerr" ]

let raise_prims = [ "raise"; "raise_notrace"; "Printexc.raise_with_backtrace" ]

let poly_exn = "<re-raise>"

(* ------------------------------------------------------------------ *)
(* Exception-name matching                                              *)

let last_seg s =
  match String.rindex_opt s '.' with
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)
  | None -> s

let qualified s = String.contains s '.'

(* Lenient on qualification: a bare [Check_failed] caught locally
   matches a [Ctree_check.Check_failed] raised elsewhere. *)
let exn_matches a b =
  a = b
  || ((not (qualified a)) && last_seg b = a)
  || ((not (qualified b)) && last_seg a = b)

(* ------------------------------------------------------------------ *)
(* Summaries                                                            *)

type handled = H_all | H_exns of SS.t

type hframe = {
  hf_handled : handled;
  hf_buids : int list;  (* brackets already open at try entry *)
  hf_released : string list;  (* bracket ids the handler bodies release *)
}

type bracket = {
  b_uid : int;
  b_id : string;
  b_desc : string;
  b_line : int;
  mutable b_safe : bool;  (* release guaranteed on unwind (Fun.protect) *)
}

type skind = S_exn of string | S_call of (string * string)

type site = {
  s_kind : skind;
  s_what : string;  (* "raise Foo", "List.hd", "Run.span", ... *)
  s_poly : bool;  (* re-raise of an in-flight exception: E3 only *)
  s_hsnap : hframe list;  (* innermost first *)
  s_bsnap : bracket list;
  s_loc : Location.t;
}

type info = {
  i_file : string;
  i_mod : string;
  i_name : string;
  i_loc : Location.t;
  i_public : bool;  (* structure-level definition: exported in raise table *)
  i_task : string option;  (* Some "Parallel.map" | "Domain.spawn" for roots *)
  mutable i_sites : site list;
  mutable i_partials : (string * Location.t) list;  (* E5 candidates *)
  (* pass-2 results: exn -> witness chain, insertion-ordered *)
  mutable i_eff : (string * string) list;
  mutable i_undecl : (string * string) list;
}

type contract = {
  co_key : string * string;
  co_exns : SS.t;
  co_file : string;
  co_loc : Location.t;
}

type global = {
  defs : info defs;
  mutable roots : info list;
  exndecls : (string * string, unit) Hashtbl.t;
  contracts : (string * string, contract) Hashtbl.t;
  mutable next_uid : int;
  mutable diags : diagnostic list;
}

type ctx = {
  glob : global;
  fc : file;
  info : info;
  defname : string;
  catch_all_ok : bool;  (* [@cts.catch_all_ok "reason"] in scope *)
  partial_ok : bool;  (* [@cts.partial_ok] in scope *)
}

let emit glob d = glob.diags <- d :: glob.diags

(* The summary of [name] in the current file, created on first use. *)
let get_def ?(public = false) ?task glob (fc : file) name loc =
  def glob.defs (fc.modname, name) (fun () ->
      {
        i_file = fc.path;
        i_mod = fc.modname;
        i_name = name;
        i_loc = loc;
        i_public = public;
        i_task = task;
        i_sites = [];
        i_partials = [];
        i_eff = [];
        i_undecl = [];
      })

(* ------------------------------------------------------------------ *)
(* Environment and proven-shape facts                                   *)

(* KFn (Some key): a let-bound local function summarized as its own
   child definition under [key]; references become call edges to it. *)
type kind = KFn of string option | KVal

let bind_vals = bind KVal

let qualify ctx (lid : Longident.t) =
  match (lid, ref_key ctx.fc (Longident.flatten lid)) with
  | _, Some (m, n) -> m ^ "." ^ n
  | Longident.Lident x, None
    when Hashtbl.mem ctx.glob.exndecls (ctx.fc.modname, x) ->
      ctx.fc.modname ^ "." ^ x
  | _ -> Longident.last lid

(* Resolved identity of a mutex expression (coarse, as in race.ml). *)
let res_id ctx env =
  resource_id ctx.fc ~local:(fun x -> if Env.mem x env then Some x else None)

(* Can a dominating check have proven this argument non-empty/Some? *)
let rec proven_expr prov e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident v; _ } -> SS.mem v prov
  | Pexp_construct ({ txt = Longident.Lident ("::" | "Some"); _ }, _) -> true
  | Pexp_constraint (e', _) -> proven_expr prov e'
  | _ -> false

let is_constant c e =
  match (strip_constraint e).pexp_desc with
  | Pexp_construct ({ txt = Longident.Lident c'; _ }, None) -> c' = c
  | _ -> false

let is_nil = is_constant "[]"
let is_none = is_constant "None"

let var_of e =
  match (strip_constraint e).pexp_desc with
  | Pexp_ident { txt = Longident.Lident v; _ } -> Some v
  | _ -> None

let is_zero e =
  match (strip_constraint e).pexp_desc with
  | Pexp_constant (Pconst_integer ("0", None)) -> true
  | _ -> false

let length_var e =
  match (strip_constraint e).pexp_desc with
  | Pexp_apply (f, [ (Asttypes.Nolabel, a) ]) -> (
      match apply_head f with
      | Some segs when List.mem (dotted segs) [ "List.length"; "Array.length" ]
        ->
          var_of a
      | _ -> None)
  | _ -> None

(* (then-branch facts, else-branch facts) a condition establishes. *)
let no_facts = (SS.empty, SS.empty)
let swap (t, e) = (e, t)

let proves_then v =
  Option.fold v ~none:no_facts ~some:(fun v -> (SS.singleton v, SS.empty))

let proves_else v = swap (proves_then v)

(* The variable a comparison tests against [] or None, on either side. *)
let emptiness_var a b =
  if is_nil b || is_none b then var_of a
  else if is_nil a || is_none a then var_of b
  else None

let rec facts_of_cond c : SS.t * SS.t =
  match (strip_constraint c).pexp_desc with
  | Pexp_apply (f, [ (_, a); (_, b) ]) -> (
      match apply_head f with
      | Some [ "<>" ] ->
          proves_then
            (match emptiness_var a b with
            | None ->
                if is_zero b then length_var a
                else if is_zero a then length_var b
                else None
            | v -> v)
      | Some [ "=" ] -> proves_else (emptiness_var a b)
      | Some [ ">" ] -> proves_then (if is_zero b then length_var a else None)
      | Some [ "&&" ] ->
          let ta, _ = facts_of_cond a and tb, _ = facts_of_cond b in
          (SS.union ta tb, SS.empty)
      | Some [ "||" ] ->
          let _, ea = facts_of_cond a and _, eb = facts_of_cond b in
          (SS.empty, SS.union ea eb)
      | _ -> no_facts)
  | Pexp_apply (f, [ (_, a) ]) -> (
      match apply_head f with
      | Some [ "not" ] -> swap (facts_of_cond a)
      | Some [ "Option"; "is_some" ] -> proves_then (var_of a)
      | Some [ "Option"; "is_none" ] -> proves_else (var_of a)
      | Some [ ("Queue" | "Stack"); "is_empty" ] ->
          (* [while not (Queue.is_empty q) do Queue.pop q ... done] is
             the canonical worklist loop: the else/negated branch
             proves the container non-empty. *)
          proves_else (var_of a)
      | _ -> no_facts)
  | _ -> no_facts

let rec definitely_raises e =
  match e.pexp_desc with
  | Pexp_apply (f, _) -> (
      match apply_head f with
      | Some segs ->
          List.mem (dotted segs)
            ("failwith" :: "invalid_arg" :: raise_prims)
      | None -> false)
  | Pexp_sequence (_, b) -> definitely_raises b
  | Pexp_constraint (e', _) -> definitely_raises e'
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Attributes                                                           *)

let flags_of_attrs ctx (attrs : attributes) =
  List.fold_left
    (fun ctx (a : attribute) ->
      match a.attr_name.Location.txt with
      | "cts.catch_all_ok"
        when Option.is_some (string_payload a.attr_payload) ->
          { ctx with catch_all_ok = true }
      | "cts.partial_ok" -> { ctx with partial_ok = true }
      | _ -> ctx)
    ctx attrs

let has_catch_all_ok attrs =
  Option.is_some (string_attr "cts.catch_all_ok" attrs)

let parse_contract s =
  SS.of_list
    (List.filter
       (fun t -> t <> "")
       (List.map String.trim (String.split_on_char ',' s)))

let add_contract glob key file loc exns =
  Hashtbl.replace glob.contracts key
    { co_key = key; co_exns = exns; co_file = file; co_loc = loc }

let contract_exns glob key =
  match Hashtbl.find_opt glob.contracts key with
  | Some c -> c.co_exns
  | None -> SS.empty

(* An ml-level [@cts.raises] contract on a let binding. *)
let add_raises_contract glob key file loc attrs =
  Option.iter
    (fun s -> add_contract glob key file loc (parse_contract s))
    (string_attr "cts.raises" attrs)

(* Contract entries are matched leniently (exn_matches): a contract
   inside the defining module may spell [Check_failed] for what the
   effect table qualifies as [Ctree_check.Check_failed]. *)
let in_contract co x = SS.exists (fun c -> exn_matches c x) co

(* ------------------------------------------------------------------ *)
(* Site recording                                                       *)

let add_site ?(poly = false) ctx hs brks kind what loc =
  ctx.info.i_sites <-
    {
      s_kind = kind;
      s_what = what;
      s_poly = poly;
      s_hsnap = hs;
      s_bsnap = brks;
      s_loc = loc;
    }
    :: ctx.info.i_sites

let add_call ctx hs brks (m, n) loc =
  add_site ctx hs brks (S_call (m, n)) "call" loc

let note_ref ctx env hs brks (lid : Longident.t) loc =
  let segs = Longident.flatten lid in
  match (segs, ref_key ctx.fc segs) with
  | _, Some edge -> add_call ctx hs brks edge loc
  | [ x ], None -> (
      match Env.find_opt x env with
      | Some (KFn (Some key)) -> add_call ctx hs brks ("", key) loc
      | Some _ -> ()
      | None -> add_call ctx hs brks ("", x) loc)
  | _ -> ()

let frame_catches hf x =
  match hf.hf_handled with
  | H_all -> true
  | H_exns s -> SS.exists (fun c -> exn_matches x c) s

let absorbed hs x = List.exists (fun hf -> frame_catches hf x) hs

(* Does bracket [b] leak when exception [x] flies at a site with
   handler frames [hs] (innermost first)? *)
let leaks b x hs =
  if b.b_safe then false
  else
    let rec scan = function
      | [] -> true  (* escapes the definition with the bracket open *)
      | hf :: tl ->
          if List.mem b.b_id hf.hf_released then false
          else if frame_catches hf x then not (List.mem b.b_uid hf.hf_buids)
          else scan tl
    in
    scan hs

(* Bracket ids an expression releases (observer handlers, ~finally). *)
let released_ids ctx env e =
  let acc = ref [] in
  iter_exprs
    (fun e' ->
      match e'.pexp_desc with
      | Pexp_apply (f, args) -> (
          match (apply_head f, nolabel_args args) with
          | Some segs, m :: _ when dotted segs = "Mutex.unlock" ->
              acc := ("lock:" ^ res_id ctx env m) :: !acc
          | Some [ p ], a :: _ when List.mem p close_prims -> (
              match var_of a with
              | Some v -> acc := ("chan:" ^ v) :: !acc
              | None -> ())
          | _ -> ())
      | _ -> ())
    e;
  !acc

let reraises v =
  exists_expr (fun e ->
      match e.pexp_desc with
      | Pexp_apply (f, args) -> (
          match (apply_head f, nolabel_args args) with
          | Some segs, a :: _ when List.mem (dotted segs) raise_prims ->
              var_of a = Some v
          | _ -> false)
      | _ -> false)

let open_bracket ctx brks id desc (loc : Location.t) =
  ctx.glob.next_uid <- ctx.glob.next_uid + 1;
  brks
  @ [
      {
        b_uid = ctx.glob.next_uid;
        b_id = id;
        b_desc = desc;
        b_line = loc.Location.loc_start.Lexing.pos_lnum;
        b_safe = false;
      };
    ]

let close_bracket brks id =
  let rec go = function
    | [] -> []
    | b :: tl ->
        if b.b_id = id && not (List.exists (fun b' -> b'.b_id = id) tl) then tl
        else b :: go tl
  in
  go (List.rev brks) |> List.rev

(* ------------------------------------------------------------------ *)
(* Handler classification                                               *)

(* [cases] are (exception-pattern, guard, rhs) triples. Returns the
   combined frame for the protected region and emits E4 for swallowing
   catch-alls. Guarded cases subtract nothing (the guard may fail). *)
let classify_handlers ctx env brks cases =
  let handled = ref SS.empty in
  let all = ref false in
  let released = ref [] in
  List.iter
    (fun (pat, guard, rhs) ->
      released := !released @ released_ids ctx env rhs;
      if guard = None then begin
        let rec names p =
          match p.ppat_desc with
          | Ppat_construct (lid, _) -> Some [ qualify ctx lid.Location.txt ]
          | Ppat_or (a, b) -> (
              match (names a, names b) with
              | Some x, Some y -> Some (x @ y)
              | _ -> None)
          | Ppat_alias (p', _) | Ppat_constraint (p', _) -> names p'
          | _ -> None
        in
        match names pat with
        | Some ns -> handled := SS.union !handled (SS.of_list ns)
        | None ->
            let caught_var =
              match pat.ppat_desc with
              | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) -> Some txt
              | _ -> None
            in
            let observer =
              match caught_var with Some v -> reraises v rhs | None -> false
            in
            if not observer then begin
              all := true;
              if
                not (ctx.catch_all_ok || has_catch_all_ok rhs.pexp_attributes)
              then
                emit ctx.glob @@ diag_at "E4" ctx.fc.path pat.ppat_loc
                  "catch-all handler swallows every exception \
                   (Out_of_memory and Stack_overflow included); enumerate \
                   the expected exceptions or annotate [@cts.catch_all_ok \
                   \"reason\"]"
            end
      end)
    cases;
  {
    hf_handled = (if !all then H_all else H_exns !handled);
    hf_buids = List.map (fun b -> b.b_uid) brks;
    hf_released = !released;
  }

(* ------------------------------------------------------------------ *)
(* The walker                                                           *)

(* [walk] returns the bracket state after the expression; handler
   frames and proven-shape facts flow downward only. *)
let rec walk ctx env prov hs brks e : bracket list =
  let ctx = flags_of_attrs ctx e.pexp_attributes in
  match e.pexp_desc with
  | Pexp_ident { txt; _ } ->
      note_ref ctx env hs brks txt e.pexp_loc;
      brks
  | Pexp_apply (f, args) -> walk_apply ctx env prov hs brks e f args
  | Pexp_let (rf, vbs, body) -> walk_let ctx env prov hs brks rf vbs body
  | Pexp_fun _ | Pexp_function _ ->
      (* A lambda in a non-applied position: its body becomes a latent
         child summary with no inbound edge — effects do not leak into
         the enclosing definition until something references it. *)
      let line, col = line_col e.pexp_loc in
      let name = Printf.sprintf "%s.<fn@%d:%d>" ctx.defname line col in
      let ci = get_def ctx.glob ctx.fc name e.pexp_loc in
      do_body { ctx with info = ci; defname = name } env e;
      brks
  | Pexp_try (body, cases) ->
      let frame =
        classify_handlers ctx env brks
          (List.map (fun c -> (c.pc_lhs, c.pc_guard, c.pc_rhs)) cases)
      in
      let brks' = walk ctx env prov (frame :: hs) brks body in
      List.iter (walk_case bind_vals (walker ctx prov hs brks) env) cases;
      brks'
  | Pexp_match (scrut, cases) ->
      let is_exn_case c =
        match c.pc_lhs.ppat_desc with Ppat_exception _ -> true | _ -> false
      in
      let exn_cases, val_cases = List.partition is_exn_case cases in
      let brks' =
        if exn_cases = [] then walk ctx env prov hs brks scrut
        else
          let frame =
            classify_handlers ctx env brks
              (List.filter_map
                 (fun c ->
                   match c.pc_lhs.ppat_desc with
                   | Ppat_exception p -> Some (p, c.pc_guard, c.pc_rhs)
                   | _ -> None)
                 exn_cases)
          in
          walk ctx env prov (frame :: hs) brks scrut
      in
      (* Shape proving: a match with an explicit []/None case proves
         the scrutinee in every other case. *)
      let is_empty c =
        match c.pc_lhs.ppat_desc with
        | Ppat_construct ({ txt = Longident.Lident ("[]" | "None"); _ }, None)
          ->
            true
        | _ -> false
      in
      let proved_var =
        match var_of scrut with
        | Some v when List.exists is_empty val_cases -> Some v
        | _ -> None
      in
      List.iter
        (fun c ->
          let env' = bind_vals env c.pc_lhs in
          let prov' =
            match proved_var with
            | Some v when not (is_empty c) -> SS.add v prov
            | _ -> prov
          in
          Option.iter
            (fun g -> ignore (walk ctx env' prov' hs brks' g))
            c.pc_guard;
          ignore (walk ctx env' prov' hs brks' c.pc_rhs))
        val_cases;
      List.iter (walk_case bind_vals (walker ctx prov hs brks) env) exn_cases;
      brks'
  | Pexp_ifthenelse (c, a, b) ->
      let brks' = walk ctx env prov hs brks c in
      let tf, ef = facts_of_cond c in
      ignore (walk ctx env (SS.union prov tf) hs brks' a);
      Option.iter
        (fun b -> ignore (walk ctx env (SS.union prov ef) hs brks' b))
        b;
      brks'
  | Pexp_sequence (a, b) ->
      let brks' = walk ctx env prov hs brks a in
      (* Early-exit guard: [if cond then raise ...; rest] proves the
         negation of [cond] for the rest of the sequence. *)
      let prov' =
        match a.pexp_desc with
        | Pexp_ifthenelse (c, th, None) when definitely_raises th ->
            let _, ef = facts_of_cond c in
            SS.union prov ef
        | _ -> prov
      in
      walk ctx env prov' hs brks' b
  | Pexp_while (c, body) ->
      let brks' = walk ctx env prov hs brks c in
      (* The body only runs while the condition holds: its then-facts
         dominate every iteration (worklist pops, length-bounded
         scans). *)
      let tf, _ = facts_of_cond c in
      ignore (walk ctx env (SS.union prov tf) hs brks' body);
      brks'
  | Pexp_for (pat, lo, hi, _, body) ->
      let brks' = walk ctx env prov hs brks lo in
      let brks' = walk ctx env prov hs brks' hi in
      ignore (walk ctx (bind_vals env pat) prov hs brks' body);
      brks'
  | _ ->
      walk_children bind_vals (walker ctx prov hs brks) env e;
      brks

(* [walk] for a visit that discards the bracket state. *)
and walker ctx prov hs brks env e = ignore (walk ctx env prov hs brks e)

(* Walk a lambda's parameter chain, then its body. A definition body
   (those lambdas ARE the definition — calling it applies them) starts
   from empty frames and brackets and also peels constraints; a lambda
   argument of an ordinary application (the HOF applies it) walks
   inline under the current frames and brackets. *)
and walk_lambda ~definition ctx env prov hs brks e =
  let ctx = flags_of_attrs ctx e.pexp_attributes in
  match e.pexp_desc with
  | Pexp_fun (_, default, pat, body) ->
      Option.iter (walker ctx prov hs brks env) default;
      walk_lambda ~definition ctx (bind_vals env pat) prov hs brks body
  | Pexp_function cases ->
      List.iter (walk_case bind_vals (walker ctx prov hs brks) env) cases
  | (Pexp_constraint (e', _) | Pexp_newtype (_, e')) when definition ->
      walk_lambda ~definition ctx env prov hs brks e'
  | _ -> walker ctx prov hs brks env e

and do_body ctx env e = walk_lambda ~definition:true ctx env SS.empty [] [] e

(* A deferred task closure: fresh root summary (empty frames/brackets
   — a task never inherits its submitter's handlers), plus an edge
   from the submitter to the root because Parallel.map re-raises the
   first task exception on the coordinator. *)
and walk_closure_as_root ctx env hs brks task a =
  let line, col = line_col a.pexp_loc in
  let name = Printf.sprintf "<task@%d:%d>" line col in
  let fresh = find_def ctx.glob.defs (ctx.fc.modname, name) = None in
  let ri = get_def ~task ctx.glob ctx.fc name a.pexp_loc in
  if fresh then ctx.glob.roots <- ri :: ctx.glob.roots;
  let rctx = { ctx with info = ri; defname = name } in
  (match a.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> do_body rctx env a
  | Pexp_ident { txt; _ } -> note_ref rctx env [] [] txt a.pexp_loc
  | _ -> ());
  add_call ctx hs brks ("", name) a.pexp_loc

and walk_let ctx env prov hs brks rf vbs body =
  let binds =
    List.map
      (fun vb ->
        match
          (vb.pvb_pat.ppat_desc, (strip_constraint vb.pvb_expr).pexp_desc)
        with
        | Ppat_var { txt; _ }, (Pexp_fun _ | Pexp_function _) ->
            let line = vb.pvb_loc.Location.loc_start.Lexing.pos_lnum in
            `Fn (txt, Printf.sprintf "%s.%s@%d" ctx.defname txt line, vb)
        | _ -> `Val vb)
      vbs
  in
  let env' =
    List.fold_left
      (fun env b ->
        match b with
        | `Fn (v, key, _) -> Env.add v (KFn (Some key)) env
        | `Val vb -> bind_vals env vb.pvb_pat)
      env binds
  in
  let rhs_env = if rf = Asttypes.Recursive then env' else env in
  let brks', prov' =
    List.fold_left
      (fun (brks, prov) b ->
        match b with
        | `Fn (_, key, vb) ->
            (* Local function: its own child summary, walked with empty
               frames and brackets — applied later, the call edge
               carries the application-site context. *)
            let ci = get_def ctx.glob ctx.fc key vb.pvb_loc in
            add_raises_contract ctx.glob (ctx.fc.modname, key) ctx.fc.path
              vb.pvb_loc vb.pvb_attributes;
            let cctx =
              flags_of_attrs
                { ctx with info = ci; defname = key }
                vb.pvb_attributes
            in
            do_body cctx rhs_env vb.pvb_expr;
            (brks, prov)
        | `Val vb ->
            let vctx = flags_of_attrs ctx vb.pvb_attributes in
            let brks = walk vctx rhs_env prov hs brks vb.pvb_expr in
            let rhs = strip_constraint vb.pvb_expr in
            let prov =
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt; _ } when proven_expr SS.empty rhs ->
                  SS.add txt prov
              | _ -> prov
            in
            let brks =
              match (vb.pvb_pat.ppat_desc, rhs.pexp_desc) with
              | Ppat_var { txt = v; _ }, Pexp_apply (f, _) -> (
                  match apply_head f with
                  | Some segs when List.mem (dotted segs) open_prims ->
                      open_bracket ctx brks ("chan:" ^ v)
                        (dotted segs ^ " " ^ v) vb.pvb_loc
                  | _ -> brks)
              | _ -> brks
            in
            (brks, prov))
      (brks, prov) binds
  in
  walk ctx env' prov' hs brks' body

and walk_raise ctx env prov hs brks x loc =
  match (strip_constraint x).pexp_desc with
  | Pexp_construct (lid, argo) ->
      let exn = qualify ctx lid.Location.txt in
      Option.iter (fun a -> ignore (walk ctx env prov hs brks a)) argo;
      add_site ctx hs brks (S_exn exn) ("raise " ^ exn) loc;
      brks
  | _ ->
      ignore (walk ctx env prov hs brks x);
      add_site ~poly:true ctx hs brks (S_exn poly_exn) "re-raise" loc;
      brks

and walk_apply ctx env prov hs brks e f args =
  match apply_head f with
  | None ->
      let brks' = walk ctx env prov hs brks f in
      List.fold_left (fun b (_, a) -> walk ctx env prov hs b a) brks' args
  | Some segs -> (
      let d = dotted segs in
      let pos = nolabel_args args in
      match (d, pos) with
      | ("raise" | "raise_notrace"), x :: _ ->
          walk_raise ctx env prov hs brks x e.pexp_loc
      | "Printexc.raise_with_backtrace", x :: _ ->
          walk_raise ctx env prov hs brks x e.pexp_loc
      | "Mutex.lock", m :: _ ->
          ignore (walk ctx env prov hs brks m);
          let id = "lock:" ^ res_id ctx env m in
          open_bracket ctx brks id
            ("Mutex.lock " ^ res_id ctx env m)
            e.pexp_loc
      | "Mutex.unlock", m :: _ ->
          ignore (walk ctx env prov hs brks m);
          close_bracket brks ("lock:" ^ res_id ctx env m)
      | "Mutex.protect", m :: rest ->
          (* The blessed exception-safe lock form: no bracket. *)
          ignore (walk ctx env prov hs brks m);
          List.iter (walk_lambda ~definition:false ctx env prov hs brks) rest;
          brks
      | "Fun.protect", _ ->
          (* ~finally guarantees release on unwind: mark the brackets
             it closes safe for the thunk's sites, then close them. *)
          let released =
            List.concat_map
              (fun (lbl, a) ->
                match lbl with
                | Asttypes.Labelled "finally" -> released_ids ctx env a
                | _ -> [])
              args
          in
          List.iter
            (fun b -> if List.mem b.b_id released then b.b_safe <- true)
            brks;
          List.iter
            (fun (_, a) -> walk_lambda ~definition:false ctx env prov hs brks a)
            args;
          List.fold_left close_bracket brks released
      | p, a :: _ when List.mem p close_prims -> (
          match var_of a with
          | Some v -> close_bracket brks ("chan:" ^ v)
          | None -> brks)
      | _, args' when task_of ctx.fc segs = Some Spawn ->
          List.iter
            (walk_closure_as_root ctx env hs brks "Domain.spawn")
            args';
          brks
      | _ ->
          if task_of ctx.fc segs = Some Pool then begin
            let line, _ = line_col e.pexp_loc in
            let task = Printf.sprintf "%s at line %d" d line in
            iter_pool_args args
              ~closure:(walk_closure_as_root ctx env hs brks task)
              ~other:(walker ctx prov hs brks env);
            brks
          end
          else begin
            (* Latent partial-call exceptions, E5 candidates. *)
            (match List.assoc_opt d raising_prims with
            | Some exn ->
                let e5able = List.mem d e5_partials in
                (* A dominating shape check absolves any
                   container-shaped latent prim (Option.get, List.hd,
                   Queue.pop under a worklist guard, ...): facts only
                   ever name list/option/queue/stack variables, so
                   string/key-indexed prims are unaffected. *)
                let proven =
                  match pos with
                  | a :: _ -> proven_expr prov a
                  | [] -> false
                in
                if not proven then begin
                  add_site ctx hs brks (S_exn exn) d e.pexp_loc;
                  if e5able && not ctx.partial_ok then
                    ctx.info.i_partials <- (d, e.pexp_loc) :: ctx.info.i_partials
                end
            | None -> ());
            ignore (walk ctx env prov hs brks f);
            List.fold_left
              (fun b (_, a) ->
                match a.pexp_desc with
                | Pexp_fun _ | Pexp_function _ ->
                    walk_lambda ~definition:false ctx env prov hs b a;
                    b
                | _ -> walk ctx env prov hs b a)
              brks args
          end)

(* ------------------------------------------------------------------ *)
(* Structure / signature passes                                         *)

(* Pre-pass: locally declared exceptions (for qualification). *)
let classify_toplevel glob (fc : file) (str : structure) =
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_exception te ->
          Hashtbl.replace glob.exndecls
            (fc.modname, te.ptyexn_constructor.pext_name.Location.txt)
            ()
      | _ -> ())
    str

let do_structure glob (fc : file) (str : structure) =
  iter_bindings
    (fun b ->
      if Option.is_some b.vb then
        add_raises_contract glob (fc.modname, b.name) fc.path b.loc b.attrs;
      let info = get_def ~public:true glob fc b.name b.loc in
      let ctx =
        {
          glob;
          fc;
          info;
          defname = b.name;
          catch_all_ok = false;
          partial_ok = false;
        }
      in
      let ctx = flags_of_attrs ctx b.attrs in
      match b.vb with
      | Some _ -> do_body ctx Env.empty b.expr
      | None -> ignore (walk ctx Env.empty SS.empty [] [] b.expr))
    str

(* Contracts from mli signatures ([@@cts.raises "Exn1,Exn2"] /
   [@@cts.raises ""] on a val). Top-level values only: the library is
   unwrapped, so (Module, name) keys line up with the ml summaries. *)
let do_interface glob (fc : file) (sg : signature) =
  List.iter
    (fun item ->
      match item.psig_desc with
      | Psig_value vd ->
          List.iter
            (fun (a : attribute) ->
              if a.attr_name.Location.txt = "cts.raises" then
                match string_payload a.attr_payload with
                | Some s ->
                    add_contract glob
                      (fc.modname, vd.pval_name.Location.txt)
                      fc.path a.attr_loc (parse_contract s)
                | None ->
                    emit glob @@ diag_at "E2" fc.path a.attr_loc
                      "malformed [@cts.raises] payload: expected a string \
                       of comma-separated exception names (\"\" for total)")
            vd.pval_attributes
      | _ -> ())
    sg

(* ------------------------------------------------------------------ *)
(* Pass 2: effect seeding and fixpoint                                  *)

let wit_of info (s : site) =
  let line, col = line_col s.s_loc in
  Printf.sprintf "%s at %s:%d:%d" s.s_what info.i_file line col

let seed_effects glob infos =
  List.iter
    (fun info ->
      let co = contract_exns glob (info.i_mod, info.i_name) in
      List.iter
        (fun s ->
          match s.s_kind with
          | S_exn x when (not s.s_poly) && not (absorbed s.s_hsnap x) ->
              let w = wit_of info s in
              if not (List.exists (fun (y, _) -> exn_matches x y) info.i_eff)
              then
                info.i_eff <- info.i_eff @ [ (x, w) ];
              if (not (in_contract co x)) && not (List.mem_assoc x info.i_undecl)
              then info.i_undecl <- info.i_undecl @ [ (x, w) ]
          | _ -> ())
        info.i_sites)
    infos

let modname i = i.i_mod

let edges i =
  List.filter_map
    (fun s -> match s.s_kind with S_call e -> Some (e, s) | S_exn _ -> None)
    i.i_sites

(* A callee's effects flow through a call site, filtered by the
   handler frames active there; the caller's own contract subtracts
   from its undeclared set. *)
let transfer glob info key s callee =
  let co = contract_exns glob (info.i_mod, info.i_name) in
  let changed = ref false in
  List.iter
    (fun (x, w) ->
      if (not (absorbed s.s_hsnap x)) && not (List.mem_assoc x info.i_eff)
      then begin
        info.i_eff <- info.i_eff @ [ (x, chain key w) ];
        changed := true
      end)
    callee.i_eff;
  List.iter
    (fun (x, w) ->
      if
        (not (absorbed s.s_hsnap x))
        && (not (in_contract co x))
        && not (List.mem_assoc x info.i_undecl)
      then begin
        info.i_undecl <- info.i_undecl @ [ (x, chain key w) ];
        changed := true
      end)
    callee.i_undecl;
  !changed

(* ------------------------------------------------------------------ *)
(* Pass 3: diagnostics                                                  *)

(* E1: an undeclared exception escapes a task closure. *)
let report_e1 glob roots =
  List.iter
    (fun root ->
      let task = match root.i_task with Some t -> t | None -> "task" in
      List.iter
        (fun (x, w) ->
          emit glob @@ diag_at "E1" root.i_file root.i_loc
            (Printf.sprintf
               "exception %s may escape this %s task closure (%s): a \
                raising task poisons the pool; catch it inside the task or \
                declare it in the provider's [@cts.raises] mli contract"
               x task w))
        root.i_undecl)
    roots

(* E2: contract verification — violated and stale directions. *)
let report_e2 glob =
  let contracts =
    List.sort
      (fun a b ->
        compare
          (a.co_file, line_col a.co_loc, a.co_key)
          (b.co_file, line_col b.co_loc, b.co_key))
      (Hashtbl.fold (fun _ co acc -> co :: acc) glob.contracts [])
  in
  List.iter
    (fun co ->
      match find_def glob.defs co.co_key with
      | None -> ()
      | Some info ->
          let d message =
            emit glob (diag_at "E2" co.co_file co.co_loc message)
          in
          let m, n = co.co_key in
          List.iter
            (fun (x, w) ->
              if not (in_contract co.co_exns x) then
                d
                  (Printf.sprintf
                     "[@cts.raises] contract on %s.%s is violated: the \
                      implementation may raise %s (%s); declare it or \
                      handle it"
                     m n x w))
            info.i_eff;
          SS.iter
            (fun x ->
              if not (List.exists (fun (y, _) -> exn_matches x y) info.i_eff)
              then
                d
                  (Printf.sprintf
                     "stale [@cts.raises] on %s.%s: the implementation \
                      cannot raise %s; drop it from the contract"
                     m n x))
            co.co_exns)
    contracts

(* E3: a raising path between acquire and release. *)
let report_e3 glob infos =
  List.iter
    (fun info ->
      List.iter
        (fun s ->
          let candidates =
            match s.s_kind with
            | S_exn x ->
                let what =
                  if s.s_poly then "a re-raised in-flight exception"
                  else x
                in
                [ (x, Printf.sprintf "%s may raise %s" s.s_what what) ]
            | S_call edge -> (
                match callee glob.defs info.i_mod edge with
                | (m, n), Some callee ->
                    List.map
                      (fun (x, w) ->
                        ( x,
                          Printf.sprintf "call to %s.%s may raise %s (%s)" m
                            n x w ))
                      callee.i_eff
                | _, None -> [])
          in
          List.iter
            (fun b ->
              List.iter
                (fun (x, desc) ->
                  if leaks b x s.s_hsnap then
                    emit glob @@ diag_at "E3" info.i_file s.s_loc
                      (Printf.sprintf
                         "%s while %s (opened at line %d) is pending \
                          release: the raising path leaks it; use \
                          Mutex.protect/Fun.protect or release in an \
                          exception handler"
                         desc b.b_desc b.b_line))
                candidates)
            s.s_bsnap)
        info.i_sites)
    infos

(* E5: partial calls on unproven shapes in task-reachable code. *)
let report_e5 glob infos reached =
  List.iter
    (fun info ->
      if List.memq info reached then
        List.iter
          (fun (prim, loc) ->
            emit glob @@ diag_at "E5" info.i_file loc
              (Printf.sprintf
                 "partial %s on a value of unproven shape is reachable \
                  from a Parallel/Domain task (via %s.%s); match the shape \
                  explicitly or annotate [@cts.partial_ok]"
                 prim info.i_mod info.i_name))
          info.i_partials)
    infos

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)

type result = {
  diagnostics : diagnostic list;
  raises : ((string * string) * string list) list;
}

let analyze_ir ir =
  let glob =
    {
      defs = create_defs ();
      roots = [];
      exndecls = Hashtbl.create 32;
      contracts = Hashtbl.create 64;
      next_uid = 0;
      diags = syntax_errors ~interfaces:true ir;
    }
  in
  let parsed = implementations ir in
  List.iter (fun (fc, str) -> classify_toplevel glob fc str) parsed;
  (* mli contracts after the walk so ml-level [@cts.raises] attributes
     never shadow an mli contract's location. *)
  List.iter (fun (fc, str) -> do_structure glob fc str) parsed;
  List.iter (fun (fc, sg) -> do_interface glob fc sg) (interfaces ir);
  let infos = nodes glob.defs in
  let roots = List.rev glob.roots in
  List.iter
    (fun i ->
      i.i_sites <- List.rev i.i_sites;
      i.i_partials <- List.rev i.i_partials)
    infos;
  seed_effects glob infos;
  fixpoint glob.defs ~modname ~edges ~transfer:(transfer glob) infos;
  let reached = reachable glob.defs ~modname ~edges roots in
  report_e1 glob roots;
  report_e2 glob;
  report_e3 glob infos;
  report_e5 glob infos reached;
  let raises =
    List.sort compare
      (List.filter_map
         (fun info ->
           if info.i_public && info.i_eff <> [] then
             Some
               ( (info.i_mod, info.i_name),
                 List.sort compare (List.map fst info.i_eff) )
           else None)
         infos)
  in
  { diagnostics = sort_diagnostics glob.diags; raises }

let analyze_sources sources = analyze_ir (of_sources sources)
let analyze_paths paths = analyze_ir (of_paths paths)
let check_sources sources = (analyze_sources sources).diagnostics
let check_paths paths = (analyze_paths paths).diagnostics
