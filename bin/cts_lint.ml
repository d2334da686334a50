(* Determinism / domain-safety / units / race / exception lint driver.

   Usage: cts_lint [--only-units] [--only-race] [--only-exc]
                   [--raises-table] [--json FILE] [DIR-OR-FILE ...]
   (default paths: lib bin)

   Every source is parsed once (Lint_ir) and the parsed sources are
   handed to each analyzer family in turn. By default all four run:
   the determinism rules (L1-L5), the physical-units checker (U1-U4),
   the concurrency-effect race analyzer (C1-C5) and the exception-flow
   analyzer (E1-E5).

   --only-units   run only the units checker
   --only-race    run only the race analyzer
   --only-exc     run only the exception-flow analyzer
                  (--only-* flags combine: each adds its family)
   --raises-table print the inferred may-raise effect table
                  ("Module.name: Exn1,Exn2" per line) and exit 0 —
                  the source of truth for [@cts.raises] contracts
   --json FILE    additionally write the diagnostics as canonical JSON
                  (Obs_json writer, stable (file,line,col,rule) order);
                  FILE may be "-" for stdout; the human-readable report
                  still goes to stdout

   Whenever the race analyzer runs, the exception analyzer's inferred
   effect table is computed and shared with it, so C4 can flag
   lock-holding calls to may-raise callees — the two passes use one
   blocking/raising effect table instead of re-walking.

   Exits 1 if any diagnostic is reported, 0 otherwise, 2 on usage
   errors, an unwritable --json path, or nothing to lint. Run from the
   repository root so that rule scoping by relative path (lib/cts_core,
   lib/report, ...) applies; paths are normalized (see
   Lint.normalize_path), so ./-prefixed and absolute spellings of
   repository files scope identically. *)

let usage () =
  prerr_endline
    "usage: cts_lint [--only-units] [--only-race] [--only-exc] \
     [--raises-table] [--json FILE] [DIR-OR-FILE ...]";
  exit 2

let () =
  let only = ref [] in
  let raises_table = ref false in
  let json_out = ref None in
  let paths = ref [] in
  let rec parse_args = function
    | [] -> ()
    | ("--only-units" | "--only-race" | "--only-exc" as flag) :: rest ->
        only := flag :: !only;
        parse_args rest
    | "--raises-table" :: rest ->
        raises_table := true;
        parse_args rest
    | "--json" :: file :: rest ->
        json_out := Some file;
        parse_args rest
    | [ "--json" ] -> usage ()
    | ("--help" | "-h") :: _ -> usage ()
    | arg :: _ when String.length arg > 2 && String.sub arg 0 2 = "--" ->
        Printf.eprintf "cts_lint: unknown option %s\n" arg;
        usage ()
    | arg :: rest ->
        paths := arg :: !paths;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let args =
    match List.rev !paths with [] -> [ "lib"; "bin" ] | ps -> ps
  in
  let files = Lint.scan (List.filter Sys.file_exists args) in
  if files = [] then begin
    Printf.eprintf "cts_lint: nothing to lint under: %s\n"
      (String.concat " " args);
    exit 2
  end;
  let ml_count =
    List.length (List.filter (fun f -> Filename.check_suffix f ".ml") files)
  in
  let want flag = !only = [] || List.mem flag !only in
  let ir = Lint_ir.of_paths files in
  (* One analysis feeds both the E-rules and the race analyzer's
     raise-aware C4. *)
  let exc =
    if want "--only-race" || want "--only-exc" || !raises_table then
      Some (Exc.analyze_ir ir)
    else None
  in
  if !raises_table then begin
    Option.iter
      (fun r ->
        List.iter
          (fun ((m, n), exns) ->
            Printf.printf "%s.%s: %s\n" m n (String.concat "," exns))
          r.Exc.raises)
      exc;
    exit 0
  end;
  let diags =
    let l = if !only = [] then Lint.lint_ir ir else [] in
    let u = if want "--only-units" then Units.check_ir ir else [] in
    let c, e =
      match exc with
      | None -> ([], [])
      | Some r ->
          ( (if want "--only-race" then Race.check_ir ~raises:r.Exc.raises ir
             else []),
            if want "--only-exc" then r.Exc.diagnostics else [] )
    in
    Lint.sort_diagnostics (l @ u @ c @ e)
  in
  (match !json_out with
  | None -> ()
  | Some file -> (
      let json = Lint_report.json_of ~files_scanned:ml_count diags in
      match Lint_report.write ~path:file json with
      | Ok () -> ()
      | Error msg ->
          Printf.eprintf "cts_lint: cannot write JSON report: %s\n" msg;
          exit 2));
  List.iter (fun d -> print_endline (Lint.to_string d)) diags;
  match diags with
  | [] -> Printf.printf "cts_lint: %d files clean\n" ml_count
  | _ ->
      Printf.eprintf "cts_lint: %d diagnostic(s)\n" (List.length diags);
      exit 1
