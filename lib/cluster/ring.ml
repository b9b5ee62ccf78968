type t = {
  vnodes : int;
  ids : string list;                (* distinct, first-occurrence order *)
  points : (int64 * string) array;  (* unsigned-sorted ring points *)
}

(* A point is the first 8 bytes of the md5, read big-endian. All ring
   arithmetic treats the int64 as unsigned — Int64.unsigned_compare and
   the wrap-around subtraction in [occupancy]. *)
let point_of s = Bytes.get_int64_be (Bytes.of_string (Digest.string s)) 0

let create ?(vnodes = 160) ids =
  if vnodes <= 0 then invalid_arg "Ring.create: vnodes must be positive";
  let ids =
    List.fold_left
      (fun acc id -> if List.mem id acc then acc else id :: acc)
      [] ids
    |> List.rev
  in
  let points =
    ids
    |> List.concat_map (fun id ->
           List.init vnodes (fun i ->
               (point_of (id ^ "#" ^ string_of_int i), id)))
    |> Array.of_list
  in
  (* md5 point collisions between two backends are vanishingly rare but
     must still order deterministically: break ties on the identity *)
  Array.sort
    (fun (a, ia) (b, ib) ->
      match Int64.unsigned_compare a b with 0 -> compare ia ib | c -> c)
    points;
  { vnodes; ids; points }

let backends t = t.ids
let vnodes t = t.vnodes

(* first index whose point is >= h (unsigned), wrapping to 0 *)
let start_index t h =
  let n = Array.length t.points in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Int64.unsigned_compare (fst t.points.(mid)) h < 0 then lo := mid + 1
    else hi := mid
  done;
  if !lo = n then 0 else !lo

let successors t key =
  let n = Array.length t.points in
  if n = 0 then []
  else begin
    let start = start_index t (point_of key) in
    let seen = Hashtbl.create 8 in
    let acc = ref [] in
    for i = 0 to n - 1 do
      let id = snd t.points.((start + i) mod n) in
      if not (Hashtbl.mem seen id) then begin
        Hashtbl.add seen id ();
        acc := id :: !acc
      end
    done;
    List.rev !acc
  end

let lookup t key =
  if Array.length t.points = 0 then None
  else Some (snd t.points.(start_index t (point_of key)))

let occupancy t =
  let n = Array.length t.points in
  if n = 0 then []
  else if List.length t.ids = 1 then [ (List.hd t.ids, 1.0) ]
  else begin
    let two64 = 18446744073709551616.0 in
    let unsigned_float i64 =
      let f = Int64.to_float i64 in
      if f < 0.0 then f +. two64 else f
    in
    let shares = Hashtbl.create 8 in
    List.iter (fun id -> Hashtbl.replace shares id 0.0) t.ids;
    Array.iteri
      (fun i (p, id) ->
        (* the arc a point owns reaches back to its predecessor; the
           wrap-around subtraction is exact in unsigned int64 *)
        let prev = fst t.points.((i + n - 1) mod n) in
        let arc = unsigned_float (Int64.sub p prev) /. two64 in
        Hashtbl.replace shares id (Hashtbl.find shares id +. arc))
      t.points;
    List.map (fun id -> (id, Hashtbl.find shares id)) t.ids
  end
