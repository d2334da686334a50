(* Tests for the determinism / domain-safety source lint (lib/lint).

   Fixtures are in-memory sources fed through [Lint.lint_sources];
   paths matter because rules L2-L5 key off them. Each rule gets a
   violating fixture pinned to its exact diagnostic and a clean
   counterpart proving the rule does not overfire. *)

let strings = Alcotest.(list string)
let lint srcs = List.map Lint.to_string (Lint.lint_sources srcs)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let check_diags name expected srcs =
  Alcotest.check strings name expected (lint srcs)

(* ----------------------------- L1 --------------------------------- *)

let l1_message prim =
  Printf.sprintf
    "%s writes shared state reachable from a Parallel pool task; annotate \
     the enclosing definition with [@cts.guarded \
     \"replay-log\"|\"mutex\"|\"atomic\"|\"domain-local\"] or keep the \
     target task-local"
    prim

let test_l1_shared () =
  check_diags "module-level table mutated inside a pool task"
    [ "lib/foo/foo.ml:3:30: [L1] " ^ l1_message "Hashtbl.replace" ]
    [
      ( "lib/foo/foo.ml",
        "let tbl = Hashtbl.create 7\n\
         let work pool xs =\n\
        \  Parallel.map pool (fun x -> Hashtbl.replace tbl x x) xs\n" );
    ]

let test_l1_task_local () =
  check_diags "freshly allocated state inside the task is fine" []
    [
      ( "lib/foo/foo.ml",
        "let work pool xs =\n\
        \  Parallel.map pool\n\
        \    (fun x ->\n\
        \      let h = Hashtbl.create 7 in\n\
        \      Hashtbl.replace h x x;\n\
        \      Hashtbl.length h)\n\
        \    xs\n" );
    ]

let test_l1_guarded () =
  check_diags "a named mechanism silences the rule" []
    [
      ( "lib/foo/foo.ml",
        "let tbl = Hashtbl.create 7\n\
         let[@cts.guarded \"mutex\"] put x = Hashtbl.replace tbl x x\n\
         let work pool xs = Parallel.map pool (fun x -> put x) xs\n" );
    ];
  check_diags "domain-local is an accepted mechanism" []
    [
      ( "lib/foo/foo.ml",
        "let key = Domain.DLS.new_key (fun () -> ref 0)\n\
         let[@cts.guarded \"domain-local\"] bump () =\n\
        \  incr (Domain.DLS.get key)\n\
         let work pool xs = Parallel.iter pool (fun _ -> bump ()) xs\n" );
    ]

let test_l1_reachability () =
  check_diags "mutation reached through a same-module helper"
    [ "lib/foo/foo.ml:2:14: [L1] " ^ l1_message "incr" ]
    [
      ( "lib/foo/foo.ml",
        "let count = ref 0\n\
         let bump () = incr count\n\
         let work pool xs = Parallel.iter pool (fun _ -> bump ()) xs\n" );
    ]

let test_l1_unreachable () =
  check_diags "the same mutation outside any pool task is not flagged" []
    [
      ( "lib/foo/foo.ml",
        "let count = ref 0\n\
         let bump () = incr count\n\
         let work xs = List.iter (fun _ -> bump ()) xs\n" );
    ]

let test_l1_blanket_suppression () =
  let diags =
    lint
      [
        ( "lib/foo/foo.ml",
          "let tbl = Hashtbl.create 7\n\
           let[@cts.guarded] put x = Hashtbl.replace tbl x x\n\
           let work pool xs = Parallel.map pool (fun x -> put x) xs\n" );
      ]
  in
  Alcotest.(check bool)
    "payload-less attribute is itself diagnosed"
    true
    (List.exists
       (fun d ->
         contains d
           "[@cts.guarded] must name its mechanism")
       diags);
  Alcotest.(check bool)
    "and it does not suppress the mutation report" true
    (List.exists
       (fun d -> contains d (l1_message "Hashtbl.replace"))
       diags)

(* ----------------------------- L2 --------------------------------- *)

let l2_message name =
  Printf.sprintf
    "%s: randomness outside lib/util/rng.ml and lib/bmark/synthetic.ml \
     breaks determinism"
    name

let test_l2 () =
  let src = "let f () = Random.float 1.0\n" in
  check_diags "Random in the synthesis core is flagged"
    [ "lib/cts_core/jitter.ml:1:11: [L2] " ^ l2_message "Random.float" ]
    [ ("lib/cts_core/jitter.ml", src) ];
  check_diags "the same call inside lib/util/rng.ml is exempt" []
    [ ("lib/util/rng.ml", src) ];
  check_diags "and inside lib/bmark/synthetic.ml" []
    [ ("lib/bmark/synthetic.ml", src) ];
  check_diags "Rng use outside the exempt files is flagged"
    [ "lib/dme/d.ml:1:12: [L2] " ^ l2_message "Rng.float" ]
    [ ("lib/dme/d.ml", "let f rng = Rng.float rng 1.0\n") ]

(* ----------------------------- L3 --------------------------------- *)

let test_l3 () =
  let src = "let now () = Unix.gettimeofday ()\n" in
  check_diags "wall-clock in lib/ is flagged"
    [
      "lib/cts_core/t.ml:1:13: [L3] wall-clock call Unix.gettimeofday in \
       lib/ (allowed only under lib/report, lib/bench and Obs.Clock)";
    ]
    [ ("lib/cts_core/t.ml", src) ];
  check_diags "lib/report is exempt" [] [ ("lib/report/r.ml", src) ];
  check_diags "lib/bench is exempt" [] [ ("lib/bench/b.ml", src) ];
  check_diags "the Obs clock gateway is exempt" []
    [ ("lib/obs/obs_clock.ml", src) ];
  check_diags "the rest of lib/obs is not"
    [
      "lib/obs/obs.ml:1:13: [L3] wall-clock call Unix.gettimeofday in \
       lib/ (allowed only under lib/report, lib/bench and Obs.Clock)";
    ]
    [ ("lib/obs/obs.ml", src) ];
  check_diags "bin/ is out of scope" [] [ ("bin/b.ml", src) ]

(* ----------------------------- L4 --------------------------------- *)

let l4_message op =
  Printf.sprintf
    "float equality %s: use an epsilon helper (Numerics.Float_cmp) or \
     annotate [@cts.float_eq_ok]"
    op

let test_l4 () =
  check_diags "float equality in lib/dme is flagged"
    [ "lib/dme/d.ml:1:13: [L4] " ^ l4_message "=" ]
    [ ("lib/dme/d.ml", "let eq a b = a = b +. 0.\n") ];
  check_diags "float disequality too"
    [ "lib/cts_core/c.ml:1:13: [L4] " ^ l4_message "<>" ]
    [ ("lib/cts_core/c.ml", "let ne a b = a <> b *. 2.\n") ];
  check_diags "the annotation opts a comparison out" []
    [ ("lib/dme/d.ml", "let eq a b = (a = b +. 0.) [@cts.float_eq_ok]\n") ];
  check_diags "integer equality is not a float comparison" []
    [ ("lib/dme/d.ml", "let eq a b = a = b + 1\n") ];
  check_diags "modules outside the numeric core are out of scope" []
    [ ("lib/bmark/m.ml", "let eq a b = a = b +. 0.\n") ]

(* ----------------------------- L5 --------------------------------- *)

let test_l5 () =
  let ml = "type t = { mutable x : int }\nlet make () = { x = 0 }\n" in
  let mli_bare = "type t\nval make : unit -> t\n" in
  let mli_doc =
    "(** Domain-safety: callers own their [t]; no global state. *)\n\
     type t\n\
     val make : unit -> t\n"
  in
  check_diags "mutable module without the doc line is flagged"
    [
      "lib/foo/foo.mli:1:0: [L5] Foo holds mutable state but its .mli has \
       no 'Domain-safety:' doc line";
    ]
    [ ("lib/foo/foo.ml", ml); ("lib/foo/foo.mli", mli_bare) ];
  check_diags "the doc line satisfies the rule" []
    [ ("lib/foo/foo.ml", ml); ("lib/foo/foo.mli", mli_doc) ];
  check_diags "a module with no interface is not in scope" []
    [ ("lib/foo/foo.ml", ml) ];
  check_diags "an immutable module needs no line" []
    [ ("lib/foo/pure.ml", "let double x = 2 * x\n");
      ("lib/foo/pure.mli", "val double : int -> int\n") ]

(* --------------------------- plumbing ------------------------------ *)

let test_syntax_error () =
  match lint [ ("lib/foo/bad.ml", "let = = =\n") ] with
  | [ d ] ->
      Alcotest.(check bool)
        "unparseable input yields a [syntax] diagnostic" true
        (contains d "[syntax]")
  | ds ->
      Alcotest.failf "expected exactly one diagnostic, got %d" (List.length ds)

let test_sorted_deduped () =
  (* Two files, violations out of order; diagnostics come back sorted
     by (file, line, col). *)
  let diags =
    lint
      [
        ("lib/dme/z.ml", "let eq a b = a = b +. 0.\n");
        ("lib/dme/a.ml", "let eq a b = a = b +. 0.\n");
      ]
  in
  Alcotest.(check (list string))
    "sorted by path"
    [
      "lib/dme/a.ml:1:13: [L4] " ^ l4_message "=";
      "lib/dme/z.ml:1:13: [L4] " ^ l4_message "=";
    ]
    diags

let test_path_normalization () =
  (* Regression: `cts_lint ./lib` or an absolute path used to defeat
     the scoping prefixes (lib/..., bin/...), silently disabling every
     rule. Paths are now re-rooted at the last recognised top-level
     segment before scoping applies. *)
  Alcotest.(check string)
    "dot-slash prefix" "lib/dme/a.ml"
    (Lint.normalize_path "./lib/dme/a.ml");
  Alcotest.(check string)
    "absolute path" "lib/dme/a.ml"
    (Lint.normalize_path "/root/repo/lib/dme/a.ml");
  Alcotest.(check string)
    "parent segments resolved" "lib/dme/a.ml"
    (Lint.normalize_path "lib/../lib/dme/./a.ml");
  Alcotest.(check string)
    "build sandbox prefix dropped" "test/t_lint.ml"
    (Lint.normalize_path "_build/default/test/t_lint.ml");
  let src = "let eq a b = a = b +. 0.\n" in
  let expected = [ "lib/dme/a.ml:1:13: [L4] " ^ l4_message "=" ] in
  Alcotest.(check (list string))
    "dot-slash sources still lint" expected
    (lint [ ("./lib/dme/a.ml", src) ]);
  Alcotest.(check (list string))
    "absolute sources still lint" expected
    (lint [ ("/root/repo/lib/dme/a.ml", src) ])

let test_determinism_shuffle () =
  (* L1-L5 output must be byte-identical regardless of the order the
     sources are supplied in, including L1 reachability across files
     and L5's pairing of an implementation with its interface. *)
  let files =
    [
      ( "lib/x/a.ml",
        "let tbl = Hashtbl.create 7\n\
         let helper x = Hashtbl.replace tbl x x\n" );
      ( "lib/x/b.ml",
        "let run pool xs = Parallel.iter pool (fun x -> A.helper x) xs\n" );
      ( "lib/x/c.ml",
        "let coin () = Random.bool ()\nlet now () = Unix.time ()\n" );
      ("lib/dme/d.ml", "let half a = a = 0.5\n");
      ("lib/x/e.ml", "let hits = ref 0\n");
      ("lib/x/e.mli", "val hits : int ref\n");
    ]
  in
  let expected = lint files in
  List.iter
    (fun rule ->
      Alcotest.(check bool)
        (rule ^ " fires") true
        (List.exists (fun d -> contains d ("[" ^ rule ^ "]")) expected))
    [ "L1"; "L2"; "L3"; "L4"; "L5" ];
  let prop =
    QCheck.Test.make ~count:30
      ~name:"diagnostics independent of file-visit order"
      (QCheck.make
         QCheck.Gen.(shuffle_l files)
         ~print:(fun fs -> String.concat "," (List.map fst fs)))
      (fun shuffled -> lint shuffled = expected)
  in
  QCheck.Test.check_exn prop

let test_repo_fixtures () =
  (* The on-disk seeded fixtures (also exercised by `make
     lint-fixtures`): each must trigger exactly its rule. *)
  let dir = "../../../test/fixtures/lint/lib/numerics" in
  let expect files rule =
    Alcotest.(check (list string))
      (List.hd files ^ " rules") [ rule ]
      (List.map
         (fun (d : Lint.diagnostic) -> d.rule)
         (Lint.lint_paths (List.map (Filename.concat dir) files)))
  in
  expect [ "l1_pool_write.ml" ] "L1";
  expect [ "l2_random.ml" ] "L2";
  expect [ "l3_wallclock.ml" ] "L3";
  expect [ "l4_float_eq.ml" ] "L4";
  expect [ "l5_state.ml"; "l5_state.mli" ] "L5"

let suite =
  [
    Alcotest.test_case "L1: shared mutation in pool task" `Quick test_l1_shared;
    Alcotest.test_case "L1: task-local allocation allowed" `Quick
      test_l1_task_local;
    Alcotest.test_case "L1: guarded mutation accepted" `Quick test_l1_guarded;
    Alcotest.test_case "L1: reachability through helpers" `Quick
      test_l1_reachability;
    Alcotest.test_case "L1: unreachable mutation not flagged" `Quick
      test_l1_unreachable;
    Alcotest.test_case "L1: blanket suppression rejected" `Quick
      test_l1_blanket_suppression;
    Alcotest.test_case "L2: randomness confinement" `Quick test_l2;
    Alcotest.test_case "L3: wall-clock confinement" `Quick test_l3;
    Alcotest.test_case "L4: float equality" `Quick test_l4;
    Alcotest.test_case "L5: Domain-safety doc lines" `Quick test_l5;
    Alcotest.test_case "syntax errors are reported" `Quick test_syntax_error;
    Alcotest.test_case "diagnostics sorted and deduped" `Quick
      test_sorted_deduped;
    Alcotest.test_case "path normalization" `Quick test_path_normalization;
    Alcotest.test_case "diagnostics deterministic under shuffle" `Quick
      test_determinism_shuffle;
    Alcotest.test_case "seeded fixtures fire" `Quick test_repo_fixtures;
  ]
