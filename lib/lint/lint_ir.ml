(* Shared front end of the source analyzers. See lint_ir.mli. *)

open Parsetree

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                         *)

type diagnostic = {
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
}

let to_string d =
  Printf.sprintf "%s:%d:%d: [%s] %s" d.file d.line d.col d.rule d.message

(* The documented report order: position first, rule as a tie-break.
   (Bare polymorphic compare on the record would sort by [rule] first —
   the field order — interleaving files in the report.) *)
let compare_diagnostic a b =
  let c = compare a.file b.file in
  if c <> 0 then c
  else
    let c = compare a.line b.line in
    if c <> 0 then c
    else
      let c = compare a.col b.col in
      if c <> 0 then c
      else
        let c = compare a.rule b.rule in
        if c <> 0 then c else compare a.message b.message

let sort_diagnostics ds = List.sort_uniq compare_diagnostic ds

let line_col (loc : Location.t) =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

let diag_at rule file loc message =
  let line, col = line_col loc in
  { rule; file; line; col; message }

(* ------------------------------------------------------------------ *)
(* Paths                                                               *)

(* Rule scoping keys off paths relative to the repository root, like
   "lib/cts_core/cts.ml". When cts_lint is invoked from outside the
   root, or with "./"-prefixed or absolute arguments, the raw path
   would defeat every prefix test, so normalization re-roots each path
   at the last segment naming a known top-level source directory. A
   path containing none of them (a scratch file in /tmp) is only
   cleaned of "." and ".." segments. *)

let top_level_dirs = [ "lib"; "bin"; "bench"; "test"; "examples" ]

let normalize_path path =
  let segs =
    List.filter
      (fun s -> s <> "" && s <> ".")
      (String.split_on_char '/' path)
  in
  let segs =
    (* Resolve ".." against a preceding real segment where possible. *)
    List.rev
      (List.fold_left
         (fun acc s ->
           match (s, acc) with
           | "..", p :: tl when p <> ".." -> tl
           | _ -> s :: acc)
         [] segs)
  in
  let root_at =
    let rec go i best = function
      | [] -> best
      | s :: tl ->
          go (i + 1) (if List.mem s top_level_dirs then Some i else best) tl
    in
    go 0 None segs
  in
  let segs =
    match root_at with
    | Some i -> List.filteri (fun j _ -> j >= i) segs
    | None -> segs
  in
  String.concat "/" segs

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let has_suffix suf s =
  let ls = String.length s and l = String.length suf in
  ls >= l && String.sub s (ls - l) l = suf

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let module_name_of path =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename path))

(* ------------------------------------------------------------------ *)
(* Syntactic helpers                                                   *)

let dotted segs =
  match List.rev segs with
  | [] -> ""
  | [ x ] -> x
  | x :: m :: _ -> m ^ "." ^ x

let qualified segs =
  match List.rev segs with
  | x :: (m :: _ as rmods) -> Some (List.rev rmods, m, x)
  | _ -> None

let apply_head e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (Longident.flatten txt)
  | _ -> None

let string_payload = function
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      Some s
  | _ -> None

let string_attr name (attrs : attributes) =
  List.find_map
    (fun (a : attribute) ->
      if a.attr_name.Location.txt = name then string_payload a.attr_payload
      else None)
    attrs

let has_attr name (attrs : attributes) =
  List.exists (fun (a : attribute) -> a.attr_name.Location.txt = name) attrs

let pattern_vars p =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) ->
              acc := txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.pat it p);
    }
  in
  it.pat it p;
  !acc

module Env = Map.Make (String)

let bind k env p = List.fold_left (fun e v -> Env.add v k e) env (pattern_vars p)

let bind_let ~kind ~plain env rf vbs =
  let env' =
    List.fold_left
      (fun env vb ->
        match vb.pvb_pat.ppat_desc with
        | Ppat_var { txt; _ } -> Env.add txt (kind vb.pvb_expr) env
        | _ -> bind plain env vb.pvb_pat)
      env vbs
  in
  (env', if rf = Asttypes.Recursive then env' else env)

let nolabel_args args =
  List.filter_map
    (fun (lbl, e) -> match lbl with Asttypes.Nolabel -> Some e | _ -> None)
    args

let rec strip_constraint e =
  match e.pexp_desc with
  | Pexp_constraint (e', _) | Pexp_newtype (_, e') -> strip_constraint e'
  | _ -> e

let iter_exprs f e =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e' ->
          f e';
          Ast_iterator.default_iterator.expr it e');
    }
  in
  it.expr it e

let exists_expr p e =
  let found = ref false in
  iter_exprs (fun e' -> if p e' then found := true) e;
  !found

let walk_case bind walk env c =
  let env = bind env c.pc_lhs in
  Option.iter (walk env) c.pc_guard;
  walk env c.pc_rhs

let walk_children bind walk env e =
  let it =
    {
      Ast_iterator.default_iterator with
      expr = (fun _ e' -> walk env e');
      case = (fun _ c -> walk_case bind walk env c);
      attributes = (fun _ _ -> ());
      pat = (fun _ _ -> ());
      typ = (fun _ _ -> ());
    }
  in
  Ast_iterator.default_iterator.expr it e

(* ------------------------------------------------------------------ *)
(* Shared primitive tables                                             *)

let mechanisms = [ "replay-log"; "mutex"; "atomic"; "domain-local" ]

let mechanism s =
  if List.mem s mechanisms then Some (s, None)
  else
    match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "mutex" && i + 1 < String.length s ->
        Some ("mutex", Some (String.sub s (i + 1) (String.length s - i - 1)))
    | _ -> None

let write_prims =
  [
    (":=", (0, Some 1)); ("incr", (0, None)); ("decr", (0, None));
    ("Hashtbl.replace", (0, Some 2)); ("Hashtbl.add", (0, Some 2));
    ("Hashtbl.remove", (0, None)); ("Hashtbl.reset", (0, None));
    ("Hashtbl.clear", (0, None)); ("Hashtbl.filter_map_inplace", (1, None));
    ("Array.set", (0, Some 2)); ("Array.unsafe_set", (0, Some 2));
    ("Array.fill", (0, Some 3)); ("Array.blit", (2, None));
    ("Array.sort", (1, None)); ("Array.fast_sort", (1, None));
    ("Array.stable_sort", (1, None));
    ("Bytes.set", (0, None)); ("Bytes.unsafe_set", (0, None));
    ("Bytes.fill", (0, None)); ("Bytes.blit", (2, None));
    ("Buffer.add_string", (0, None)); ("Buffer.add_char", (0, None));
    ("Buffer.add_bytes", (0, None)); ("Buffer.add_buffer", (0, None));
    ("Buffer.add_substring", (0, None)); ("Buffer.add_subbytes", (0, None));
    ("Buffer.clear", (0, None)); ("Buffer.reset", (0, None));
    ("Buffer.truncate", (0, None));
    ("Queue.add", (1, Some 0)); ("Queue.push", (1, Some 0));
    ("Queue.pop", (0, None)); ("Queue.take", (0, None));
    ("Queue.clear", (0, None)); ("Queue.transfer", (0, None));
    ("Stack.push", (1, Some 0)); ("Stack.pop", (0, None));
    ("Stack.clear", (0, None));
    ("Atomic.set", (0, Some 1)); ("Atomic.exchange", (0, Some 1));
    ("Atomic.compare_and_set", (0, Some 2));
    ("Atomic.fetch_and_add", (0, None)); ("Atomic.incr", (0, None));
    ("Atomic.decr", (0, None));
  ]

let fresh_allocs =
  [
    "ref"; "Hashtbl.create"; "Hashtbl.copy"; "Queue.create"; "Queue.copy";
    "Buffer.create"; "Stack.create"; "Atomic.make"; "Mutex.create";
    "Condition.create"; "Array.make"; "Array.init"; "Array.create_float";
    "Array.of_list"; "Array.copy"; "Array.make_matrix"; "Array.append";
    "Array.concat"; "Array.sub"; "Array.map"; "Array.mapi"; "Bytes.create";
    "Bytes.make"; "Bytes.copy"; "Bytes.of_string";
  ]

(* ------------------------------------------------------------------ *)
(* Parsed sources                                                      *)

type ast = Impl of structure | Intf of signature

type file = {
  path : string;
  modname : string;
  text : string;
  ast : (ast, diagnostic) result;
  aliases : (string, string) Hashtbl.t;
}

type t = file list

(* Top-level [module A = M.B] aliases, collected over the whole file
   before any analyzer walks it. *)
let collect_aliases (str : structure) =
  let aliases = Hashtbl.create 8 in
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_module
          { pmb_name = { txt = Some alias; _ };
            pmb_expr = { pmod_desc = Pmod_ident { txt; _ }; _ };
            _ } ->
          Hashtbl.replace aliases alias (Longident.last txt)
      | _ -> ())
    str;
  aliases

let syntax_diag path exn =
  match Location.error_of_exn exn with
  | Some (`Ok (err : Location.error)) ->
      diag_at "syntax" path err.Location.main.Location.loc
        (Format.asprintf "%t" err.Location.main.Location.txt)
  | _ ->
      { rule = "syntax"; file = path; line = 1; col = 0;
        message = Printexc.to_string exn }

let parse path text =
  let lexbuf = Lexing.from_string text in
  Lexing.set_filename lexbuf path;
  if Filename.check_suffix path ".mli" then Intf (Parse.interface lexbuf)
  else Impl (Parse.implementation lexbuf)

let of_sources sources =
  List.map (fun (p, c) -> (normalize_path p, c)) sources
  |> List.filter (fun (p, _) ->
         Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli")
  |> List.sort compare
  |> List.map (fun (path, text) ->
         let ast =
           match parse path text with
           | ast -> Ok ast
           | exception exn ->
               (Error (syntax_diag path exn)
               [@cts.catch_all_ok "a parse failure becomes a syntax diagnostic"])
         in
         let aliases =
           match ast with
           | Ok (Impl str) -> collect_aliases str
           | _ -> Hashtbl.create 1
         in
         { path; modname = module_name_of path; text; ast; aliases })

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let of_paths paths = of_sources (List.map (fun p -> (p, read_file p)) paths)

let implementations =
  List.filter_map (fun f ->
      match f.ast with Ok (Impl s) -> Some (f, s) | _ -> None)

let interfaces =
  List.filter_map (fun f ->
      match f.ast with Ok (Intf s) -> Some (f, s) | _ -> None)

let syntax_errors ~interfaces =
  List.filter_map (fun f ->
      match f.ast with
      | Error d when interfaces || Filename.check_suffix f.path ".ml" -> Some d
      | _ -> None)

let resolve_alias file m =
  match Hashtbl.find_opt file.aliases m with Some t -> t | None -> m

let ref_key file segs =
  match qualified segs with
  | Some (_, m, x) -> Some (resolve_alias file m, x)
  | None -> None

let rec resource_id file ~local e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } -> (
      match local x with Some id -> id | None -> file.modname ^ "." ^ x)
  | Pexp_ident { txt; _ } -> (
      match ref_key file (Longident.flatten txt) with
      | Some (m, x) -> m ^ "." ^ x
      | None -> "<anon>")
  | Pexp_field (_, { txt; _ }) -> "<." ^ Longident.last txt ^ ">"
  | Pexp_constraint (e', _) -> resource_id file ~local e'
  | _ -> "<anon>"

(* ------------------------------------------------------------------ *)
(* Top-level bindings and task roots                                   *)

type binding = {
  name : string;
  vb : value_binding option;
  attrs : attributes;
  expr : expression;
  loc : Location.t;
}

let iter_bindings ?(other = ignore) f (str : structure) =
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              let name =
                match vb.pvb_pat.ppat_desc with
                | Ppat_var { txt; _ } -> txt
                | _ ->
                    Printf.sprintf "_top_%d"
                      item.pstr_loc.Location.loc_start.Lexing.pos_lnum
              in
              f
                {
                  name;
                  vb = Some vb;
                  attrs = vb.pvb_attributes;
                  expr = vb.pvb_expr;
                  loc = vb.pvb_loc;
                })
            vbs
      | Pstr_eval (e, attrs) ->
          f { name = "_eval"; vb = None; attrs; expr = e; loc = item.pstr_loc }
      | _ -> other item)
    str

type task = Pool | Spawn

let task_of file segs =
  match segs with
  | [ m; ("map" | "iter") ] when resolve_alias file m = "Parallel" -> Some Pool
  | _ when dotted segs = "Domain.spawn" -> Some Spawn
  | _ -> None

let is_closure e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_ident _ -> true
  | _ -> false

let iter_pool_args ~closure ~other args =
  List.iteri
    (fun i a -> if i > 0 && is_closure a then closure a else other a)
    (nolabel_args args);
  List.iter (fun (lbl, a) -> if lbl <> Asttypes.Nolabel then other a) args

(* ------------------------------------------------------------------ *)
(* Definition table, fixpoint and reachability                         *)

type 'a defs = {
  table : (string * string, 'a) Hashtbl.t;
  mutable rev_nodes : 'a list;
}

let create_defs () = { table = Hashtbl.create 256; rev_nodes = [] }
let find_def defs key = Hashtbl.find_opt defs.table key
let add_node defs n = defs.rev_nodes <- n :: defs.rev_nodes

let def defs key make =
  match Hashtbl.find_opt defs.table key with
  | Some n -> n
  | None ->
      let n = make () in
      Hashtbl.replace defs.table key n;
      add_node defs n;
      n

let nodes defs = List.rev defs.rev_nodes
let resolve_key caller (m, n) = ((if m = "" then caller else m), n)

let callee defs caller edge =
  let key = resolve_key caller edge in
  (key, Hashtbl.find_opt defs.table key)

let chain (m, n) witness = Printf.sprintf "%s.%s -> %s" m n witness
let rec until_stable round = if round () then until_stable round

let fixpoint defs ~modname ~edges ~transfer ns =
  until_stable (fun () ->
      List.fold_left
        (fun changed n ->
          List.fold_left
            (fun changed (edge, e) ->
              match callee defs (modname n) edge with
              | key, Some c when c != n -> transfer n key e c || changed
              | _ -> changed)
            changed (edges n))
        false ns)

let reachable defs ~modname ~edges roots =
  let visited = Hashtbl.create 64 in
  let reached = ref [] in
  let queue = Queue.create () in
  List.iter (fun r -> Queue.add r queue) roots;
  while not (Queue.is_empty queue) do
    let n = Queue.pop queue in
    reached := n :: !reached;
    List.iter
      (fun (edge, _) ->
        let key = resolve_key (modname n) edge in
        if not (Hashtbl.mem visited key) then begin
          Hashtbl.replace visited key ();
          Option.iter (fun c -> Queue.add c queue) (find_def defs key)
        end)
      (edges n)
  done;
  !reached
