type t = {
  n : int;
  parent : int array;
  g_edge : float array;
  cap : float array;
  tag_index : (string * int) list;
}

let of_tree tree =
  let n = Circuit.Rc_tree.n_nodes tree in
  let parent = Array.make n (-1) in
  let g_edge = Array.make n 0. in
  let cap = Array.make n 0. in
  let tags = ref [] in
  let counter = ref 0 in
  let rec visit (node : Circuit.Rc_tree.t) parent_idx res =
    let idx = !counter in
    incr counter;
    parent.(idx) <- parent_idx;
    g_edge.(idx) <- (if parent_idx < 0 then 0. else 1. /. res);
    cap.(idx) <- node.cap;
    (match node.tag with Some s -> tags := (s, idx) :: !tags | None -> ());
    List.iter (fun (r, child) -> visit child idx r) node.children
  in
  visit tree (-1) 0.;
  { n; parent; g_edge; cap; tag_index = List.rev !tags }

let index_of_tag t tag = List.assoc tag t.tag_index

type factored = {
  flat : t;
  ediag : float array;  (* eliminated diagonal; the root's entry as given *)
  ratio : float array;  (* g_edge.(i) /. ediag.(i) *)
  root_kd : float array;
      (* per root child, in elimination order: what eliminating it takes
         from the root's diagonal *)
}

type row = { mutable diag : float; mutable rhs : float }

(* Leaf-to-root elimination of the diagonal: preorder numbering
   guarantees parent.(i) < i, so a reverse sweep eliminates children
   first. The root's entry is left as given: its device stamp is added
   per Newton iteration, before the children's contributions. *)
let factor t ~diag =
  let n = t.n in
  let ediag = Array.copy diag in
  let ratio = Array.make n 0. in
  let kids = ref [] in
  for i = n - 1 downto 1 do
    let p = t.parent.(i) in
    let f = t.g_edge.(i) /. ediag.(i) in
    ratio.(i) <- f;
    if p = 0 then kids := i :: !kids
    else ediag.(p) <- ediag.(p) -. (f *. t.g_edge.(i))
  done;
  (* [kids] is ascending; elimination visits the root's children in
     descending index order. *)
  let root_kd =
    Array.of_list (List.rev_map (fun k -> ratio.(k) *. t.g_edge.(k)) !kids)
  in
  { flat = t; ediag; ratio; root_kd }

let root_degree fz = Array.length fz.root_kd

let reduce fz ~rhs ~kr =
  let parent = fz.flat.parent and ratio = fz.ratio in
  let j = ref 0 in
  for i = fz.flat.n - 1 downto 1 do
    let p = parent.(i) in
    let c = ratio.(i) *. rhs.(i) in
    if p = 0 then begin
      kr.(!j) <- c;
      incr j
    end
    else rhs.(p) <- rhs.(p) +. c
  done

let eliminate_root fz ~kr row =
  let kd = fz.root_kd in
  for j = 0 to Array.length kd - 1 do
    row.diag <- row.diag -. kd.(j);
    row.rhs <- row.rhs +. kr.(j)
  done

let back_substitute fz ~rhs ~into =
  let t = fz.flat in
  for i = 1 to t.n - 1 do
    let p = t.parent.(i) in
    into.(i) <- (rhs.(i) +. (t.g_edge.(i) *. into.(p))) /. fz.ediag.(i)
  done

let solve t ~diag ~rhs ~into =
  let fz = factor t ~diag in
  let kr = Array.make (root_degree fz) 0. in
  reduce fz ~rhs ~kr;
  let row = { diag = diag.(0); rhs = rhs.(0) } in
  eliminate_root fz ~kr row;
  into.(0) <- row.rhs /. row.diag;
  back_substitute fz ~rhs ~into
