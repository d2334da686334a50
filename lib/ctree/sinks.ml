type spec = { name : string; pos : Geometry.Point.t; cap : float }

let centroid specs = Geometry.Point.centroid (List.map (fun s -> s.pos) specs)
let bbox specs = Geometry.Bbox.of_points (List.map (fun s -> s.pos) specs)

let validate specs =
  let errors = ref [] in
  if specs = [] then errors := "no sinks" :: !errors;
  let seen = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if Hashtbl.mem seen s.name then
        errors := Printf.sprintf "duplicate sink name %s" s.name :: !errors;
      Hashtbl.replace seen s.name ();
      let bad what =
        errors := Printf.sprintf "sink %s has %s" s.name what :: !errors
      in
      let { Geometry.Point.x; y } = s.pos in
      if not (Float.is_finite x && Float.is_finite y) then
        bad "a non-finite position";
      if not (Float.is_finite s.cap) then bad "a non-finite cap"
      else if s.cap <= 0. then bad "non-positive cap")
    specs;
  List.rev !errors
