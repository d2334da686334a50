(* In-memory span recorder for the traced run.

   A span has a name, a start, an end and a parent; spans are recorded
   on the calling domain only (the replay is sequential), kept in memory
   and written out once at the end of the run. A span's self time is its
   duration minus the time its children cover. *)

type t = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root span *)
  start : float;
  stop : float;
}

let log : t list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0

let record name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_ids with p :: _ -> p | [] -> -1 in
  open_ids := id :: !open_ids;
  let start = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let stop = Unix.gettimeofday () in
      open_ids := List.tl !open_ids;
      log := { id; name; parent; start; stop } :: !log)
    f

let all () = List.sort (fun a b -> Int.compare a.id b.id) !log
let duration s = s.stop -. s.start

(* Children of one parent run one after another on one domain, so the
   time they cover is the sum of their durations. *)
let self_times spans =
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (duration s
          +. Option.value ~default:0. (Hashtbl.find_opt covered s.parent)))
    spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt covered s.id)))
    spans

(* Total duration and self time per span name, in first-seen order. *)
let by_name spans =
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt tbl s.name with
      | Some (n, total, self_total) ->
          Hashtbl.replace tbl s.name (n + 1, total +. duration s, self_total +. self)
      | None ->
          order := s.name :: !order;
          Hashtbl.replace tbl s.name (1, duration s, self))
    (self_times spans);
  List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order

let total name spans =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. duration s else acc)
    0. spans

let write path ~header spans =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  let t0 = match spans with s :: _ -> s.start | [] -> 0. in
  Printf.fprintf oc "{%s,\n \"by_name\": [" header;
  List.iteri
    (fun i (name, (n, tot, self)) ->
      Printf.fprintf oc
        "%s\n  {\"name\": %S, \"count\": %d, \"total_s\": %.9f, \"self_s\": %.9f}"
        (if i = 0 then "" else ",")
        name n tot self)
    (by_name spans);
  Printf.fprintf oc "],\n \"spans\": [";
  List.iteri
    (fun i (s, self) ->
      Printf.fprintf oc
        "%s\n  {\"id\": %d, \"name\": %S, \"parent\": %d, \"start_s\": %.9f, \
         \"end_s\": %.9f, \"self_s\": %.9f}"
        (if i = 0 then "" else ",")
        s.id s.name s.parent (s.start -. t0) (s.stop -. t0) self)
    (self_times spans);
  Printf.fprintf oc "]}\n"
