type t = int Atomic.t

let declared : (string * t) list Atomic.t = Atomic.make []

let make name =
  let t = Atomic.make 0 in
  let rec register () =
    let seen = Atomic.get declared in
    if List.mem_assoc name seen then invalid_arg ("Tally.make: duplicate name " ^ name);
    if not (Atomic.compare_and_set declared seen ((name, t) :: seen)) then register ()
  in
  register ();
  t

let[@inline] incr t = Atomic.incr t
let[@inline] add t n = ignore (Atomic.fetch_and_add t n)
let get = Atomic.get

let all () =
  List.sort (fun (a, _) (b, _) -> String.compare a b) (Atomic.get declared)
