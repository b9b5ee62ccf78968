type t =
  | Const of float
  | Var of string
  | Add of t list
  | Mul of t list
  | Neg of t
  | Div of t * t
  | Pow of t * int

let zero = Const 0.0
let one = Const 1.0
let const v = Const v
let var n = Var n
let s = Var "s"

let rec simplify e =
  match e with
  | Const _ | Var _ -> e
  | Neg a -> begin
    match simplify a with
    | Const c -> Const (-.c)
    | Neg b -> b
    | a' -> Neg a'
  end
  | Pow (a, k) -> begin
    match (simplify a, k) with
    | _, 0 -> one
    | a', 1 -> a'
    | Const c, k -> Const (c ** float_of_int k)
    | a', k -> Pow (a', k)
  end
  | Div (a, b) -> begin
    match (simplify a, simplify b) with
    | Const 0.0, _ -> zero
    | a', Const 1.0 -> a'
    | Const x, Const y when y <> 0.0 -> Const (x /. y)
    | a', b' -> Div (a', b')
  end
  | Add terms ->
    let flat =
      List.concat_map
        (fun t -> match simplify t with Add ts -> ts | Const 0.0 -> [] | t' -> [ t' ])
        terms
    in
    let consts, rest = List.partition (function Const _ -> true | _ -> false) flat in
    let csum =
      List.fold_left (fun acc t -> match t with Const c -> acc +. c | _ -> acc) 0.0 consts
    in
    let terms' = if csum = 0.0 then rest else rest @ [ Const csum ] in
    (match terms' with [] -> zero | [ t ] -> t | ts -> Add ts)
  | Mul factors ->
    let flat =
      List.concat_map
        (fun t -> match simplify t with Mul ts -> ts | Const 1.0 -> [] | t' -> [ t' ])
        factors
    in
    if List.exists (function Const 0.0 -> true | _ -> false) flat then zero
    else begin
      let consts, rest = List.partition (function Const _ -> true | _ -> false) flat in
      let cprod =
        List.fold_left (fun acc t -> match t with Const c -> acc *. c | _ -> acc) 1.0 consts
      in
      let factors' = if cprod = 1.0 then rest else Const cprod :: rest in
      match factors' with [] -> one | [ t ] -> t | ts -> Mul ts
    end

let add2 a b = simplify (Add [ a; b ])
let mul2 a b = simplify (Mul [ a; b ])
let sub2 a b = simplify (Add [ a; Neg b ])
let div2 a b = simplify (Div (a, b))
let neg a = simplify (Neg a)
let pow a k = simplify (Pow (a, k))
let sum ts = simplify (Add ts)
let product ts = simplify (Mul ts)

let ( + ) = add2
let ( - ) = sub2
let ( * ) = mul2
let ( / ) = div2

let rec eval e env =
  match e with
  | Const c -> c
  | Var n -> env n
  | Add ts -> List.fold_left (fun acc t -> acc +. eval t env) 0.0 ts
  | Mul ts -> List.fold_left (fun acc t -> acc *. eval t env) 1.0 ts
  | Neg a -> -.eval a env
  | Div (a, b) ->
    let d = eval b env in
    if d = 0.0 then raise Division_by_zero else eval a env /. d
  | Pow (a, k) -> eval a env ** float_of_int k

let vars e =
  let acc = ref [] in
  let rec go = function
    | Const _ -> ()
    | Var n -> if not (List.mem n !acc) then acc := n :: !acc
    | Add ts | Mul ts -> List.iter go ts
    | Neg a -> go a
    | Div (a, b) ->
      go a;
      go b
    | Pow (a, _) -> go a
  in
  go e;
  List.sort compare !acc

let equal a b = simplify a = simplify b

let rec to_string e =
  let paren inner = Printf.sprintf "(%s)" inner in
  match e with
  | Const c -> Printf.sprintf "%g" c
  | Var n -> n
  | Add ts -> paren (String.concat " + " (List.map to_string ts))
  | Mul ts -> String.concat "*" (List.map atom ts)
  | Neg a -> Printf.sprintf "-%s" (atom a)
  | Div (a, b) -> Printf.sprintf "%s/%s" (atom a) (atom b)
  | Pow (a, k) -> Printf.sprintf "%s^%d" (atom a) k

and atom e =
  match e with
  | Const c when c >= 0.0 -> Printf.sprintf "%g" c
  | Var n -> n
  | Pow _ | Mul _ -> to_string e
  | Const _ | Add _ | Neg _ | Div _ -> Printf.sprintf "(%s)" (to_string e)

let pp ppf e = Format.pp_print_string ppf (to_string e)
