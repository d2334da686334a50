(* Tests for the shared lint front end (lib/lint/lint_ir.ml).

   cts_lint parses every source once and hands the same Lint_ir.t to
   all four analyzer families. That is only sound if no analyzer
   mutates the shared parse (the per-file alias table above all: the
   units checker extends its own copy for nested submodules). So every
   family run over one shared IR — units first and again last — must
   give exactly the diagnostics it gives over a fresh parse of its
   own. *)

let root = "../../.."

(* Units first, so anything it leaks reaches the families after it,
   and again last, to see what they leak. *)
let families =
  [
    ("units", Units.check_ir);
    ("lint", Lint.lint_ir);
    ("exc", fun ir -> (Exc.analyze_ir ir).Exc.diagnostics);
    ("race", fun ir -> Race.check_ir ~raises:(Exc.analyze_ir ir).Exc.raises ir);
    ("units again", Units.check_ir);
  ]

let check_isolated name fresh =
  let ir = fresh () in
  List.iter
    (fun (family, run) ->
      let shared = run ir in
      let alone = run (fresh ()) in
      Alcotest.(check (list string))
        (name ^ ": " ^ family)
        (List.map Lint.to_string alone)
        (List.map Lint.to_string shared))
    families

let test_repo_trees () =
  List.iter
    (fun dirs ->
      let paths = Lint.scan (List.map (Filename.concat root) dirs) in
      Alcotest.(check bool) "sources found" true (paths <> []);
      check_isolated (String.concat "+" dirs) (fun () -> Lint_ir.of_paths paths))
    [
      [ "lib"; "bin" ];
      [ "test/fixtures/lint" ];
      [ "test/fixtures/lint/race" ];
      [ "test/fixtures/lint/exc" ];
    ]

let test_submodule_alias () =
  (* A submodule's alias is the units checker's to know: if it leaked
     into the shared table, [P.map] below would become a pool
     submission for the analyzers that run after it. *)
  let sources =
    [
      ( "lib/x/a.ml",
        "module Sub = struct module P = Parallel end\n\
         let tbl = Hashtbl.create 7\n\
         let work pool xs = P.map pool (fun x -> Hashtbl.replace tbl x x) xs\n"
      );
    ]
  in
  check_isolated "submodule alias" (fun () -> Lint_ir.of_sources sources);
  Alcotest.(check (list string))
    "no pool submission" []
    (List.map Lint.to_string (Lint.lint_sources sources))

let suite =
  [
    Alcotest.test_case "one IR for all families: repository trees" `Quick
      test_repo_trees;
    Alcotest.test_case "one IR for all families: submodule aliases" `Quick
      test_submodule_alias;
  ]
