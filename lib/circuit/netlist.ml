type node = int

type mos = {
  m_name : string;
  d : node;
  g : node;
  s : node;
  b : node;
  polarity : Process.polarity;
  w : float;
  l : float;
  mult : float;
}

type device =
  | Resistor of { r_name : string; np : node; nn : node; ohms : float }
  | Capacitor of { c_name : string; np : node; nn : node; farads : float }
  | Vsource of { v_name : string; np : node; nn : node; wave : Stimulus.t; ac_mag : float }
  | Isource of { i_name : string; np : node; nn : node; wave : Stimulus.t; ac_mag : float }
  | Vcvs of { e_name : string; p : node; n : node; cp : node; cn : node; gain : float }
  | Mos of mos
  | Switch of {
      s_name : string;
      np : node;
      nn : node;
      r_on : float;
      r_off : float;
      closed_at : float -> bool;
    }

(* The devices in insertion order, built on first use after a change. *)
type ordered = { arr : device array; lst : device list }

type t = {
  proc : Process.t;
  names : (string, node) Hashtbl.t;
  mutable node_names : string array; (* by node; grown by doubling *)
  mutable next : int;
  mutable devs : device list; (* reversed *)
  mutable ordered : ordered option; (* [None] after [add] or [set_wave] *)
  mutable verdict : (unit, string) result option;
      (* [validate]'s answer; [None] after a new node or device *)
  mutable n_branches : int;
  branches : (string, int) Hashtbl.t;
  dev_names : (string, unit) Hashtbl.t;
}

let ground = 0

let create proc =
  let names = Hashtbl.create 32 in
  Hashtbl.replace names "0" ground;
  Hashtbl.replace names "gnd" ground;
  {
    proc;
    names;
    node_names = Array.make 16 "gnd";
    next = 1;
    devs = [];
    ordered = None;
    verdict = None;
    n_branches = 0;
    branches = Hashtbl.create 8;
    dev_names = Hashtbl.create 32;
  }

let process t = t.proc

let node t name =
  match Hashtbl.find_opt t.names name with
  | Some n -> n
  | None ->
    let n = t.next in
    t.next <- n + 1;
    Hashtbl.replace t.names name n;
    if n = Array.length t.node_names then begin
      let grown = Array.make (2 * n) "" in
      Array.blit t.node_names 0 grown 0 n;
      t.node_names <- grown
    end;
    t.node_names.(n) <- name;
    t.verdict <- None;
    n

let find_node t name = Hashtbl.find_opt t.names name

let node_name t n = if n >= 0 && n < t.next then t.node_names.(n) else Printf.sprintf "#%d" n

let node_index (n : node) : int = n
let node_count t = t.next

let register_name t name =
  if Hashtbl.mem t.dev_names name then
    invalid_arg (Printf.sprintf "Netlist: duplicate device name %S" name);
  Hashtbl.replace t.dev_names name ()

let add t d =
  t.devs <- d :: t.devs;
  t.ordered <- None;
  t.verdict <- None

let resistor t name np nn ohms =
  if ohms <= 0.0 then invalid_arg "Netlist.resistor: non-positive resistance";
  register_name t name;
  add t (Resistor { r_name = name; np; nn; ohms })

let capacitor t name np nn farads =
  if farads <= 0.0 then invalid_arg "Netlist.capacitor: non-positive capacitance";
  register_name t name;
  add t (Capacitor { c_name = name; np; nn; farads })

let new_branch t name =
  let k = t.n_branches in
  t.n_branches <- k + 1;
  Hashtbl.replace t.branches name k

let vsource ?(ac_mag = 0.0) t name np nn wave =
  register_name t name;
  new_branch t name;
  add t (Vsource { v_name = name; np; nn; wave; ac_mag })

let isource ?(ac_mag = 0.0) t name np nn wave =
  register_name t name;
  add t (Isource { i_name = name; np; nn; wave; ac_mag })

let vcvs t name ~p ~n ~cp ~cn ~gain =
  register_name t name;
  new_branch t name;
  add t (Vcvs { e_name = name; p; n; cp; cn; gain })

let mosfet t name ~d ~g ~s ~b polarity ~w ~l ?(mult = 1.0) () =
  if w <= 0.0 || l <= 0.0 then invalid_arg "Netlist.mosfet: non-positive geometry";
  if mult <= 0.0 then invalid_arg "Netlist.mosfet: non-positive multiplier";
  register_name t name;
  add t (Mos { m_name = name; d; g; s; b; polarity; w; l; mult })

let switch t name np nn ~r_on ~r_off ~closed_at =
  if r_on <= 0.0 || r_off <= 0.0 then invalid_arg "Netlist.switch: non-positive resistance";
  register_name t name;
  add t (Switch { s_name = name; np; nn; r_on; r_off; closed_at })

let set_wave t name wave =
  let found = ref false in
  let devs =
    List.map
      (function
        | Vsource v when v.v_name = name ->
          found := true;
          Vsource { v with wave }
        | Isource i when i.i_name = name ->
          found := true;
          Isource { i with wave }
        | d -> d)
      t.devs
  in
  if not !found then
    invalid_arg (Printf.sprintf "Netlist.set_wave: no independent source %S" name);
  t.devs <- devs;
  t.ordered <- None

let ordered t =
  match t.ordered with
  | Some o -> o
  | None ->
    let lst = List.rev t.devs in
    let o = { arr = Array.of_list lst; lst } in
    t.ordered <- Some o;
    o

let devices t = (ordered t).lst
let device_array t = (ordered t).arr

let mos_devices t =
  List.filter_map (function Mos m -> Some m | _ -> None) (devices t)

let branch_count t = t.n_branches
let unknown_count t = t.next - 1 + t.n_branches
let branch_index t name = Hashtbl.find_opt t.branches name

let check t =
  (* every non-ground node must connect to at least two device terminals,
     and the graph of all devices must connect every node to ground *)
  let n = node_count t in
  let adj = Array.make n [] in
  let connect a b =
    adj.(a) <- b :: adj.(a);
    adj.(b) <- a :: adj.(b)
  in
  let terminal_count = Array.make n 0 in
  let touch x = terminal_count.(x) <- terminal_count.(x) + 1 in
  List.iter
    (fun d ->
      match d with
      | Resistor { np; nn; _ }
      | Capacitor { np; nn; _ }
      | Vsource { np; nn; _ }
      | Isource { np; nn; _ }
      | Switch { np; nn; _ } ->
        connect np nn;
        touch np;
        touch nn
      | Vcvs { p; n = nn; cp; cn; _ } ->
        connect p nn;
        touch p;
        touch nn;
        touch cp;
        touch cn
      | Mos { d = dd; g; s; b; _ } ->
        connect dd s;
        connect g s;
        connect dd b;
        touch dd;
        touch g;
        touch s;
        touch b)
    (devices t);
  let visited = Array.make n false in
  let rec dfs x =
    if not visited.(x) then begin
      visited.(x) <- true;
      List.iter dfs adj.(x)
    end
  in
  dfs ground;
  let problems = ref [] in
  for i = 1 to n - 1 do
    if not visited.(i) then
      problems := Printf.sprintf "node %S unreachable from ground" (node_name t i) :: !problems;
    if terminal_count.(i) < 2 then
      problems :=
        Printf.sprintf "node %S has fewer than two connections" (node_name t i)
        :: !problems
  done;
  match !problems with
  | [] -> Ok ()
  | ps -> Error (String.concat "; " ps)

(* Validity depends on nodes and connectivity only, which [set_wave]
   leaves alone: the verdict is kept until a node or a device is added. *)
let validate t =
  match t.verdict with
  | Some v -> v
  | None ->
    let v = check t in
    t.verdict <- Some v;
    v
