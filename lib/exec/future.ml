type 'a state = Pending | Done of 'a | Failed of exn

type 'a t = {
  mutex : Mutex.t;
  settled : Condition.t;
  mutable state : 'a state;
}

let create () =
  { mutex = Mutex.create (); settled = Condition.create (); state = Pending }

let settle t state =
  Mutex.lock t.mutex;
  (match t.state with
  | Pending ->
    t.state <- state;
    Condition.broadcast t.settled;
    Mutex.unlock t.mutex
  | Done _ | Failed _ ->
    Mutex.unlock t.mutex;
    invalid_arg "Future: already settled");
  ()

let resolve t v = settle t (Done v)
let fail t e = settle t (Failed e)

let await t =
  Mutex.lock t.mutex;
  let rec wait () =
    match t.state with
    | Pending ->
      Condition.wait t.settled t.mutex;
      wait ()
    | Done v ->
      Mutex.unlock t.mutex;
      v
    | Failed e ->
      Mutex.unlock t.mutex;
      raise e
  in
  wait ()

let is_resolved t =
  Mutex.lock t.mutex;
  let r = match t.state with Pending -> false | Done _ | Failed _ -> true in
  Mutex.unlock t.mutex;
  r
